package dlt

import "math"

// FinishTime returns T_j(α), the time at which processor j finishes its
// assignment under allocation alpha, per equations (2.1)-(2.2) of the paper:
//
//	T_0 = α_0·w_0
//	T_j = Σ_{k=1..j} (1 - Σ_{l<k} α_l)·z_k + α_j·w_j   for α_j > 0
//	T_j = 0                                            for α_j = 0, j ≥ 1
//
// The sum term is the arrival time of P_j's assignment: every link k ≤ j
// carries the residual load D_k = 1 - Σ_{l<k} α_l, and with the one-port
// store-and-forward pipeline those transfers happen back to back.
func FinishTime(n *Network, alpha []float64, j int) float64 {
	if j == 0 {
		return alpha[0] * n.W[0]
	}
	if alpha[j] == 0 {
		return 0
	}
	var arrive, consumed float64
	for k := 1; k <= j; k++ {
		consumed += alpha[k-1]
		arrive += float64((1 - consumed) * n.Z[k])
	}
	return arrive + float64(alpha[j]*n.W[j])
}

// FinishTimes returns T_j(α) for every processor. It shares the prefix sums
// across processors, so it is O(m) rather than O(m²).
func FinishTimes(n *Network, alpha []float64) []float64 {
	m := n.M()
	ts := make([]float64, m+1)
	ts[0] = alpha[0] * n.W[0]
	var arrive, consumed float64
	for j := 1; j <= m; j++ {
		consumed += alpha[j-1]
		arrive += float64((1 - consumed) * n.Z[j])
		if alpha[j] == 0 {
			ts[j] = 0
		} else {
			ts[j] = arrive + float64(alpha[j]*n.W[j])
		}
	}
	return ts
}

// Makespan returns T(α) = max_j T_j(α).
func Makespan(n *Network, alpha []float64) float64 {
	var mk float64
	for _, t := range FinishTimes(n, alpha) {
		if t > mk {
			mk = t
		}
	}
	return mk
}

// FinishSpread returns the gap max_j T_j − min_{j: α_j>0} T_j between the
// finish times of the participating processors. Theorem 2.1 says the optimal
// allocation drives this to zero; experiment E1 measures it.
func FinishSpread(n *Network, alpha []float64) float64 {
	ts := FinishTimes(n, alpha)
	lo, hi := math.Inf(1), math.Inf(-1)
	for j, t := range ts {
		if j > 0 && alpha[j] == 0 {
			continue
		}
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	if math.IsInf(lo, 1) {
		return 0
	}
	return hi - lo
}

// ArrivalTimes returns, for each processor j ≥ 1, the time at which its
// assignment fully arrives (the communication prefix of T_j); index 0 is 0.
// The discrete-event simulator is validated against these values.
func ArrivalTimes(n *Network, alpha []float64) []float64 {
	m := n.M()
	at := make([]float64, m+1)
	var arrive, consumed float64
	for j := 1; j <= m; j++ {
		consumed += alpha[j-1]
		arrive += float64((1 - consumed) * n.Z[j])
		at[j] = arrive
	}
	return at
}
