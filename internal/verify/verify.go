// Package verify is the conformance subsystem of the dlsmech repository: a
// standing harness that plays adversaries through the real signed protocol
// (internal/protocol) and checks every theorem of Carroll & Grosu (IPPS 2007)
// against independently computed bills, fines and bonuses, plus differential
// oracles (exact rational arithmetic, the LP solver) and metamorphic
// invariances of the float paths.
//
// The package has four parts:
//
//   - the strategy catalog (catalog.go): one composable adversarial agent
//     per deviation class the paper names — bid misreports, load shedding,
//     slow execution, overcharging, contradictory and forged messages,
//     false accusations, data corruption and desertion;
//
//   - the theorem checkers (theorems.go): one named checker per theorem
//     (2.1, 5.1-5.4) that replays a scenario and returns structured
//     Verdicts carrying the violated inequality when a check fails;
//
//   - the differential oracle harness (oracle.go): dlt.SolveBoundary and
//     core.Evaluate cross-checked against internal/dlt/exact.go (big.Rat)
//     and internal/lp, plus metamorphic invariances (cost/load rescaling
//     and suffix consistency);
//
//   - the suite runner (suite.go, report.go): a seed×size matrix producing
//     a machine-readable JSON conformance report, driven by cmd/dlsverify.
//
// This file holds the shared inequality definitions. Experiment E3, the
// Theorem 5.3 checker and the best-response oracle in internal/dynamics call
// these same helpers, so "utility gain over truthful bidding" has exactly
// one definition in the repository.
package verify

import (
	"fmt"
	"math"

	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
)

// GainTol is the shared numerical tolerance for incentive inequalities: a
// deviation "gains" only when its utility exceeds the truthful utility by
// more than this. It matches the wire tolerance the protocol uses when
// re-verifying float arithmetic and the tolerance E3/E9 always used.
const GainTol = 1e-9

// BidFactors returns the canonical multiplicative bid grid g (bid = t·g)
// used by the strategyproofness checks everywhere in the repository: the
// Theorem 5.3 checker and experiment E3's utility curves. One grid, one
// inequality.
func BidFactors() []float64 {
	return []float64{0.5, 0.7, 0.85, 0.95, 1.0, 1.05, 1.15, 1.3, 1.6, 2.0}
}

// Verdict is the structured outcome of one conformance check.
type Verdict struct {
	// Checker names the check ("theorem-5.3", "oracle-exact", ...).
	Checker string `json:"checker"`
	// Theorem is the paper result the check enforces ("2.1", "5.1", ...;
	// "oracle" for the differential/metamorphic harness).
	Theorem string `json:"theorem"`
	// Strategy is the catalog strategy the scenario played (empty when the
	// check is strategy-independent).
	Strategy string `json:"strategy,omitempty"`
	Seed     uint64 `json:"seed"`
	Size     int    `json:"size"`
	Passed   bool   `json:"passed"`
	// Violated states the inequality that failed, in the paper's notation
	// (empty when Passed).
	Violated string `json:"violated,omitempty"`
	// Detail carries human-readable context (skip reasons, worst offender).
	Detail string `json:"detail,omitempty"`
	// Margin is the worst slack to the bound: positive means the check held
	// with room to spare, negative measures the violation.
	Margin float64 `json:"margin"`
}

// String implements fmt.Stringer.
func (v Verdict) String() string {
	status := "ok"
	if !v.Passed {
		status = "VIOLATED " + v.Violated
	}
	s := fmt.Sprintf("%s seed=%d size=%d", v.Checker, v.Seed, v.Size)
	if v.Strategy != "" {
		s += " strategy=" + v.Strategy
	}
	return fmt.Sprintf("%s: %s (margin %.3g)", s, status, v.Margin)
}

// finite sanitizes a margin for JSON encoding (encoding/json rejects NaN and
// ±Inf); the sentinel keeps the verdict serializable while the Detail string
// records what happened.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// StrategyproofGain is the shared Theorem 5.3 inequality on a chain: the
// largest utility gain over truthful bidding any strategic agent can find on
// the canonical bid grid. Theorem 5.3 predicts ≤ 0; callers compare against
// GainTol.
func StrategyproofGain(trueNet *dlt.Network, cfg core.Config) (float64, error) {
	return core.StrategyproofViolation(trueNet, BidFactors(), cfg)
}

// BestBidOnGrid is the shared best-response oracle: it evaluates utility at
// the current bid and at every grid candidate truth·g, and returns the bid
// worth moving to — the current bid unless some candidate improves utility
// by more than tol. gain is the improvement of the returned bid over the
// current one (0 when staying put). The semantics are exactly those the
// best-response dynamics (internal/dynamics) always used: ties and sub-tol
// improvements keep the current bid, and among improving candidates the
// first maximizer in grid order wins.
func BestBidOnGrid(utility func(bid float64) (float64, error), truth, current float64, grid []float64, tol float64) (bestBid, gain float64, err error) {
	bestU, err := utility(current)
	if err != nil {
		return 0, 0, err
	}
	currentU := bestU
	bestBid = current
	for _, g := range grid {
		cand := truth * g
		if cand == current {
			continue
		}
		u, err := utility(cand)
		if err != nil {
			return 0, 0, err
		}
		if u > bestU+tol {
			bestU, bestBid = u, cand
		}
	}
	return bestBid, bestU - currentU, nil
}
