package verify

import (
	"errors"
	"fmt"
	"math"

	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/lp"
)

// Oracle tolerances. The exact oracle bounds accumulated float64 rounding in
// the backward/forward sweeps against big.Rat ground truth; the LP oracle
// compares two very different float algorithms (simplex vs the closed-form
// recurrence), so it is looser.
const (
	exactRelTol = 1e-9
	lpRelTol    = 1e-7
)

// CheckExactOracle cross-checks the float solver against the big.Rat
// implementation: the relative drift of every α_i must stay within
// exactRelTol.
func CheckExactOracle(sc *Scenario) Verdict {
	v := sc.verdict("oracle-exact", "oracle")
	drift, err := dlt.ExactFloatDrift(sc.Net)
	if err != nil {
		return errVerdict(v, err)
	}
	note(&v, exactRelTol-drift)
	if drift > exactRelTol {
		fail(&v, exactRelTol-drift, "float alpha within 1e-9 of exact rational alpha",
			fmt.Sprintf("max drift %.3g", drift))
	}
	return seal(v)
}

// CheckLPOracle cross-checks Algorithm 1's makespan against the simplex
// formulation of the same scheduling problem in internal/lp.
func CheckLPOracle(sc *Scenario) Verdict {
	v := sc.verdict("oracle-lp", "oracle")
	plan, err := dlt.SolveBoundary(sc.Net)
	if err != nil {
		return errVerdict(v, err)
	}
	lpT, err := lp.ScheduleLPMakespan(sc.Net)
	if errors.Is(err, lp.ErrNumeric) {
		// The dense simplex detected its own numerical collapse on this
		// instance. That is the oracle's limitation, not the mechanism's
		// violation — the exact big.Rat oracle still covers the cell.
		return skip(v, "LP oracle numerically unstable on this instance")
	}
	if err != nil {
		return errVerdict(v, err)
	}
	scale := math.Max(1, plan.Makespan())
	d := math.Abs(plan.Makespan() - lpT)
	note(&v, lpRelTol*scale-d)
	if d > lpRelTol*scale {
		fail(&v, lpRelTol*scale-d, "Algorithm 1 makespan equals the LP optimum",
			fmt.Sprintf("|%.9g - %.9g| = %.3g", plan.Makespan(), lpT, d))
	}
	return seal(v)
}

// CheckMetamorphic verifies invariances the mechanism must have whatever the
// numbers are:
//
//   - joint rescaling: multiplying every W and Z by c > 0 leaves the
//     allocation unchanged and scales makespan and every truthful payment by
//     exactly c (the mechanism is unit-free);
//   - suffix consistency: w̄_i equals the optimal makespan of the sub-chain
//     P_i..P_m solved standalone (the reduction invariant (2.4)).
func CheckMetamorphic(sc *Scenario) Verdict {
	v := sc.verdict("oracle-metamorphic", "oracle")
	net, cfg := sc.Net, sc.Cfg
	plan, err := dlt.SolveBoundary(net)
	if err != nil {
		return errVerdict(v, err)
	}
	scale := math.Max(1, plan.Makespan())

	// Joint rescaling by c.
	const c = 3
	w := make([]float64, net.Size())
	z := make([]float64, net.M())
	for i := range w {
		w[i] = net.W[i] * c
	}
	for i := range z {
		z[i] = net.Z[i+1] * c
	}
	scaledNet, err := dlt.NewNetwork(w, z)
	if err != nil {
		return errVerdict(v, err)
	}
	scaled, err := dlt.SolveBoundary(scaledNet)
	if err != nil {
		return errVerdict(v, err)
	}
	for i := range plan.Alpha {
		d := math.Abs(plan.Alpha[i] - scaled.Alpha[i])
		note(&v, GainTol-d)
		if d > GainTol {
			fail(&v, GainTol-d, "alpha invariant under joint (W,Z) rescaling",
				fmt.Sprintf("alpha[%d]: %v vs %v at c=%v", i, plan.Alpha[i], scaled.Alpha[i], c))
		}
	}
	if d := math.Abs(scaled.Makespan() - c*plan.Makespan()); d > GainTol*c*scale {
		fail(&v, GainTol*c*scale-d, "makespan scales linearly under joint rescaling",
			fmt.Sprintf("T(c·net)=%.9g vs c·T=%.9g", scaled.Makespan(), c*plan.Makespan()))
	}
	base, err := core.EvaluateTruthful(net, cfg)
	if err != nil {
		return errVerdict(v, err)
	}
	scaledOut, err := core.EvaluateTruthful(scaledNet, cfg)
	if err != nil {
		return errVerdict(v, err)
	}
	for j := range base.Payments {
		d := math.Abs(scaledOut.Payments[j].Total - c*base.Payments[j].Total)
		note(&v, GainTol*c*scale-d)
		if d > GainTol*c*scale {
			fail(&v, GainTol*c*scale-d, "truthful payments scale linearly under joint rescaling",
				fmt.Sprintf("Q_%d(c·net)=%.9g vs c·Q_%d=%.9g", j, scaledOut.Payments[j].Total, j, c*base.Payments[j].Total))
		}
	}

	// Suffix consistency (2.4).
	for i := 0; i <= net.M(); i++ {
		sub, err := dlt.SolveBoundary(net.Suffix(i))
		if err != nil {
			return errVerdict(v, err)
		}
		d := math.Abs(plan.WBar[i] - sub.Makespan())
		note(&v, GainTol*scale-d)
		if d > GainTol*scale {
			fail(&v, GainTol*scale-d, "wbar_i equals the standalone suffix makespan (2.4)",
				fmt.Sprintf("wbar[%d]=%.9g vs suffix %.9g", i, plan.WBar[i], sub.Makespan()))
		}
	}

	return seal(v)
}
