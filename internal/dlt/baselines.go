package dlt

// Baseline allocators. The paper's Algorithm 1 is optimal; these are the
// naive policies a resource owner might use instead, implemented so that
// experiment E2 can quantify the optimality gap. All of them return a global
// allocation vector α summing to 1.

// UniformAlloc splits the load evenly across all processors, ignoring both
// processing and link heterogeneity.
func UniformAlloc(n *Network) []float64 {
	alpha := make([]float64, n.Size())
	share := 1 / float64(n.Size())
	for i := range alpha {
		alpha[i] = share
	}
	return alpha
}

// ProportionalAlloc splits the load proportionally to processing speed
// (1/w_i), the classical "speed-weighted" heuristic. It ignores link costs
// and pipelining, so it overloads distant fast processors.
func ProportionalAlloc(n *Network) []float64 {
	alpha := make([]float64, n.Size())
	var total float64
	for _, w := range n.W {
		total += 1 / w
	}
	for i, w := range n.W {
		alpha[i] = (1 / w) / total
	}
	return alpha
}

// CommAwareProportionalAlloc weights each processor by the reciprocal of its
// end-to-end unit cost: the time to ship a unit down the chain plus the time
// to process it, 1/(w_i + Σ_{k≤i} z_k). It accounts for distance but not for
// the pipelining of transfers, so it still undershoots the optimum.
func CommAwareProportionalAlloc(n *Network) []float64 {
	alpha := make([]float64, n.Size())
	var total, pathZ float64
	costs := make([]float64, n.Size())
	for i := range n.W {
		pathZ += n.Z[i]
		costs[i] = 1 / (n.W[i] + pathZ)
		total += costs[i]
	}
	for i := range alpha {
		alpha[i] = costs[i] / total
	}
	return alpha
}

// RootOnlyAlloc keeps all load at P_0: the no-distribution policy whose
// makespan is w_0. The speedup of the optimal schedule is measured against
// this baseline.
func RootOnlyAlloc(n *Network) []float64 {
	alpha := make([]float64, n.Size())
	alpha[0] = 1
	return alpha
}
