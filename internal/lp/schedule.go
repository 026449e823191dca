package lp

import (
	"dlsmech/internal/dlt"
)

// ScheduleLP formulates LINEAR BOUNDARY-LINEAR as a linear program and
// solves it with the simplex method — the independent optimality oracle for
// Algorithm 1.
//
// Variables: x = (α_0..α_m, T), all ≥ 0. Objective: minimize T.
// Constraints:
//
//	Σ α_i = 1
//	T_j(α) ≤ T for every j, with T_j from (2.1)-(2.2) in its linear form
//	  T_j = Z_j − Σ_{l<j} S_{lj}·α_l + w_j·α_j,  Z_j = Σ_{k≤j} z_k,
//	  S_{lj} = Σ_{k=l+1..j} z_k.
//
// (The linear form charges the communication prefix even to a processor
// with α_j = 0, which only over-constrains idle processors; at the optimum
// every processor works — Theorem 2.1 — so the LP optimum coincides with
// the true optimum.)
func ScheduleLP(n *dlt.Network) (*Solution, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	m := n.M()
	nv := m + 2 // α_0..α_m, T

	p := Problem{
		Name: "linear-boundary-linear",
		C:    make([]float64, nv),
	}
	p.C[nv-1] = 1 // minimize T

	// Equality: Σ α = 1.
	eq := make([]float64, nv)
	for i := 0; i <= m; i++ {
		eq[i] = 1
	}
	p.E = [][]float64{eq}
	p.F = []float64{1}

	// Prefix sums of z.
	zPrefix := make([]float64, m+1) // zPrefix[j] = Σ_{k≤j} z_k
	for j := 1; j <= m; j++ {
		zPrefix[j] = zPrefix[j-1] + n.Z[j]
	}
	for j := 0; j <= m; j++ {
		row := make([]float64, nv)
		for l := 0; l < j; l++ {
			row[l] = -(zPrefix[j] - zPrefix[l]) // −S_{lj}
		}
		row[j] += n.W[j]
		row[nv-1] = -1 // −T
		p.A = append(p.A, row)
		p.B = append(p.B, -zPrefix[j]) // T_j − T ≤ 0 ⇔ row·x ≤ −Z_j
	}
	return Solve(p)
}

// ScheduleLPMakespan returns only the optimal makespan.
func ScheduleLPMakespan(n *dlt.Network) (float64, error) {
	sol, err := ScheduleLP(n)
	if err != nil {
		return 0, err
	}
	return sol.Obj, nil
}
