// Package core implements the economics of the DLS-LBL mechanism — the
// primary contribution of Carroll & Grosu, "A Strategyproof Mechanism for
// Scheduling Divisible Loads in Linear Networks" (IPPS 2007).
//
// The mechanism schedules a unit divisible load on a linear network with
// boundary origination. Processor P_i is parameterized by a privately known
// true per-unit processing time t_i. It bids w_i (possibly ≠ t_i), is
// assigned α_i by the LINEAR BOUNDARY-LINEAR algorithm run on the bids,
// computes its (possibly deviated) retained load α̃_i at an actual measured
// speed w̃_i ≥ t_i, and is then paid
//
//	Q_j = C_j + B_j                               (4.6)
//	C_j = α_j·w̃_j + E_j                          (4.7) compensation
//	E_j = (α̃_j − α_j)·w̃_j   if α̃_j ≥ α_j        (4.8) recompense
//	B_j = w_{j-1} − w̄_{j-1}(α(bids), actual)     (4.9) bonus
//
// where the adjusted equivalent time in the bonus is the two-processor
// reduction of P_{j-1} with the equivalent processor for P_j..P_m, evaluated
// at the allocation fixed by the bids but at P_j's *actual* performance
//
//	ŵ_m = w̃_m                                    (4.10)
//	ŵ_k = α̂_k·w̃_k  if w̃_k ≥ w_k, else w̄_k      (4.11)
//
// The utility of P_j is U_j = V_j + Q_j with valuation V_j = −α̃_j·w̃_j. The
// root P_0 is obedient and has identically zero utility (4.3).
//
// This package is the *analytic* layer: given true values, bids and actual
// behavior it computes allocations, payments and utilities in closed form.
// The distributed signed-message realization of the same mechanism (Phases
// I-IV with grievances, fines and audits) lives in internal/protocol and
// uses this package for every number it pays out.
package core

import (
	"errors"
	"fmt"
	"math"

	"dlsmech/internal/dlt"
)

// Config carries the mechanism's economic parameters.
type Config struct {
	// Fine is F: the penalty for a caught deviation. It must exceed any
	// profit attainable by cheating (Theorem 5.1); experiment A5 measures
	// the profit envelope. DefaultConfig sets a comfortable margin.
	Fine float64
	// AuditProb is q ∈ (0,1]: the probability that the root demands
	// Proof_j for a submitted bill. A failed audit costs F/q, which makes
	// overcharging a losing bet in expectation regardless of q.
	AuditProb float64
	// SolutionBonus is S ≥ 0, the extension of (4.13) that disciplines
	// selfish-AND-annoying agents: a small bonus paid only when the
	// computation's solution is found (verifiable loads only). Zero
	// disables it.
	SolutionBonus float64
}

// DefaultConfig returns the parameters used throughout the experiments:
// F = 10 (the unit-load cheating-profit envelope measured by experiment A5
// stays well under 1), q = 0.25, no solution bonus.
func DefaultConfig() Config {
	return Config{Fine: 10, AuditProb: 0.25}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Fine < 0 || math.IsNaN(c.Fine) || math.IsInf(c.Fine, 0) {
		return fmt.Errorf("core: invalid fine %v", c.Fine)
	}
	if !(c.AuditProb > 0) || c.AuditProb > 1 {
		return fmt.Errorf("core: audit probability %v not in (0,1]", c.AuditProb)
	}
	if c.SolutionBonus < 0 || math.IsNaN(c.SolutionBonus) {
		return fmt.Errorf("core: invalid solution bonus %v", c.SolutionBonus)
	}
	return nil
}

// AuditFine returns F/q, the penalty for failing a Phase IV audit.
func (c Config) AuditFine() float64 { return c.Fine / c.AuditProb }

// OverloadPenalty returns the Phase III penalty for a processor that shed
// load onto its successor: F plus the cost of the extra work the victim
// performed. (The paper's expression has an index typo — (α̃_{i+1}−α_{i-1});
// the quantity that makes the recompense balance is the victim's extra load
// (α̃_{i+1}−α_{i+1}), which is what we use. See DESIGN.md.)
func (c Config) OverloadPenalty(extraLoad, victimWTilde float64) float64 {
	return c.Fine + extraLoad*victimWTilde
}

// Report describes what the strategic processors did in one run.
type Report struct {
	// Bids is w: the declared per-unit processing times. Bids[0] is the
	// obedient root's true value.
	Bids []float64
	// ActualW is w̃: the measured per-unit times (nil ⇒ every processor
	// runs at its true speed). Each w̃_i must satisfy w̃_i ≥ t_i: a
	// processor cannot compute faster than its capacity.
	ActualW []float64
	// ActualHat optionally deviates from the planned local fractions in
	// Phase III (α̃ through the cascade); nil ⇒ on-plan. The terminal
	// processor always computes everything it receives.
	ActualHat []float64
	// SolutionFound reports whether the verifiable computation produced
	// its solution (only relevant when Config.SolutionBonus > 0).
	SolutionFound bool
}

// Payment itemizes one processor's Phase IV payment.
type Payment struct {
	Valuation    float64 // V_j = −α̃_j·w̃_j
	Compensation float64 // α_j·w̃_j
	Recompense   float64 // E_j
	Bonus        float64 // B_j
	Solution     float64 // S (if enabled and solution found)
	Total        float64 // Q_j = Compensation + Recompense + Bonus + Solution (0 if α̃_j = 0)
	Utility      float64 // U_j = V_j + Q_j
}

// Outcome is the result of evaluating the mechanism on one report.
type Outcome struct {
	BidNet      *dlt.Network    // the network built from the bids
	Plan        *dlt.Allocation // Algorithm 1 run on the bids
	ActualAlpha []float64       // α̃ after the Phase III cascade
	ActualW     []float64       // w̃ actually used
	WHat        []float64       // ŵ per (4.10)-(4.11)
	Payments    []Payment       // indexed by processor; index 0 is the root
	Makespan    float64         // realized makespan (actual speeds & loads)
}

// Errors returned by Evaluate.
var (
	ErrLengths     = errors.New("core: report length does not match network")
	ErrBadBid      = errors.New("core: bids must be positive and finite")
	ErrRootBid     = errors.New("core: the root is obedient and must bid its true value")
	ErrOverclocked = errors.New("core: actual speed faster than true capacity (w̃ < t)")
	ErrBadHat      = errors.New("core: actual fractions must lie in [0,1]")
)

// Evaluate runs the mechanism analytically. trueNet carries the true values
// t_i as W (and the public link times Z); rep carries bids and behavior.
func Evaluate(trueNet *dlt.Network, rep Report, cfg Config) (*Outcome, error) {
	out := &Outcome{}
	if err := EvaluateInto(out, trueNet, rep, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// EvaluateInto is Evaluate writing into a caller-owned Outcome, reusing its
// slices (and its BidNet/Plan) whenever they have capacity. In steady state —
// repeated evaluations at the same or smaller network size — it performs
// zero heap allocations, which is what the property sweeps and the parallel
// experiment engine run thousands of instances per second on. Nothing in rep
// or trueNet is retained or aliased: the Outcome owns copies, exactly like
// Evaluate. On error the Outcome contents are unspecified.
func EvaluateInto(out *Outcome, trueNet *dlt.Network, rep Report, cfg Config) error {
	if err := trueNet.Validate(); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	size := trueNet.Size()
	if len(rep.Bids) != size {
		return fmt.Errorf("%w: %d bids for %d processors", ErrLengths, len(rep.Bids), size)
	}
	for i, b := range rep.Bids {
		if !(b > 0) || math.IsInf(b, 0) {
			return fmt.Errorf("%w: bid[%d]=%v", ErrBadBid, i, b)
		}
	}
	if rep.Bids[0] != trueNet.W[0] {
		return fmt.Errorf("%w: bid %v, true %v", ErrRootBid, rep.Bids[0], trueNet.W[0])
	}

	actualW := rep.ActualW
	if actualW == nil {
		actualW = trueNet.W
	}
	if len(actualW) != size {
		return fmt.Errorf("%w: %d actual speeds", ErrLengths, len(actualW))
	}
	for i, w := range actualW {
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: ActualW[%d]=%v", ErrBadBid, i, w)
		}
		if w < trueNet.W[i]-1e-12 {
			return fmt.Errorf("%w: processor %d at %v < t=%v", ErrOverclocked, i, w, trueNet.W[i])
		}
	}

	// Phase I-II on the bids. The bid network needs no Validate pass of its
	// own: the bids were range-checked above and Z comes from the validated
	// trueNet, which is everything Validate would re-check — so the solver's
	// pre-validated fast path applies.
	if out.BidNet == nil {
		out.BidNet = &dlt.Network{}
	}
	out.BidNet.W = growFloats(out.BidNet.W, size)
	copy(out.BidNet.W, rep.Bids)
	out.BidNet.Z = growFloats(out.BidNet.Z, size)
	copy(out.BidNet.Z, trueNet.Z)
	if out.Plan == nil {
		out.Plan = &dlt.Allocation{}
	}
	dlt.SolveBoundaryInto(out.BidNet, out.Plan)
	plan := out.Plan

	// Phase III cascade: actual retained loads.
	actualHat := rep.ActualHat
	if actualHat == nil {
		actualHat = plan.AlphaHat
	}
	if len(actualHat) != size {
		return fmt.Errorf("%w: %d actual fractions", ErrLengths, len(actualHat))
	}
	out.ActualAlpha = growFloats(out.ActualAlpha, size)
	if err := cascadeActualInto(out.ActualAlpha, actualHat); err != nil {
		return err
	}
	out.ActualW = growFloats(out.ActualW, size)
	copy(out.ActualW, actualW)
	out.WHat = growFloats(out.WHat, size)
	wHatAdjustedInto(out.WHat, plan, out.BidNet.W, out.ActualW)
	if cap(out.Payments) >= size {
		out.Payments = out.Payments[:size]
	} else {
		out.Payments = make([]Payment, size)
	}

	// Root (4.3): V_0 = −α_0·w̃_0, C_0 = α_0·w̃_0, U_0 = 0. The root is
	// obedient, so its actual load is its planned load.
	rootCost := plan.Alpha[0] * out.ActualW[0]
	out.Payments[0] = Payment{
		Valuation:    -rootCost,
		Compensation: rootCost,
		Total:        rootCost,
		Utility:      0,
	}

	for j := 1; j < size; j++ {
		out.Payments[j] = paymentFor(j, trueNet.Z[j], plan, out.BidNet.W, out.ActualAlpha, out.ActualW, out.WHat, cfg, rep.SolutionFound)
	}
	out.Makespan = realizedMakespan(trueNet.Z, out.ActualAlpha, out.ActualW)
	return nil
}

// growFloats returns s resized to length n, reusing its backing array when
// the capacity allows and allocating only on growth.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// paymentFor computes (4.4)-(4.9) (plus the (4.13) solution bonus) for
// processor j ≥ 1, where zj is the per-unit time of link l_j into P_j.
func paymentFor(j int, zj float64, plan *dlt.Allocation, bids, actualAlpha, actualW, wHat []float64, cfg Config, solutionFound bool) Payment {
	p := Payment{Valuation: -actualAlpha[j] * actualW[j]}
	if actualAlpha[j] == 0 {
		// (4.6): a processor that computed nothing is paid nothing.
		p.Utility = p.Valuation // zero, since α̃_j = 0
		return p
	}
	p.Compensation = plan.Alpha[j] * actualW[j]
	if actualAlpha[j] >= plan.Alpha[j] {
		p.Recompense = (actualAlpha[j] - plan.Alpha[j]) * actualW[j]
	}
	adjusted := dlt.RealizedEquivTwo(plan.AlphaHat[j-1], bids[j-1], zj, wHat[j])
	if brokenBonusAdjustment.Load() {
		// Test hook: drop the (4.10)-(4.11) performance adjustment. See
		// testhook.go — the conformance suite must detect this as a
		// strategyproofness violation.
		adjusted = plan.WBar[j-1]
	}
	p.Bonus = bids[j-1] - adjusted
	if cfg.SolutionBonus > 0 && solutionFound {
		p.Solution = cfg.SolutionBonus
	}
	p.Total = p.Compensation + p.Recompense + p.Bonus + p.Solution
	p.Utility = p.Valuation + p.Total
	return p
}

// wHatAdjustedInto computes ŵ per (4.10)-(4.11) into a caller-owned slice
// of the right length: the equivalent bid of the sub-chain at each position
// adjusted for that processor's own actual speed.
//
//	ŵ_m = w̃_m
//	ŵ_k = α̂_k·w̃_k   if w̃_k ≥ w_k   (ran slower than bid: adjusted)
//	ŵ_k = w̄_k        if w̃_k < w_k   (ran faster: unchanged)
//
// The (4.11) rule applies uniformly to every k < m — including
// k = 0, where the obedient root always satisfies w̃_0 ≥ w_0 — so a single
// loop covers the chain and the m = 0 singleton falls out of the ŵ_m = w̃_m
// terminal case with no special-casing.
func wHatAdjustedInto(wh []float64, plan *dlt.Allocation, bids, actualW []float64) {
	m := len(bids) - 1
	wh[m] = actualW[m]
	for k := 0; k < m; k++ {
		if actualW[k] >= bids[k] {
			wh[k] = plan.AlphaHat[k] * actualW[k]
		} else {
			wh[k] = plan.WBar[k]
		}
	}
}

// cascadeActualInto converts an actual local-fraction profile α̃̂ into
// global actual loads, written into a caller-owned slice of the same length
// as actualHat: D̃_0 = 1, α̃_i = D̃_i·h_i, D̃_{i+1} = D̃_i − α̃_i, with the
// terminal processor forced to compute everything that reaches it.
func cascadeActualInto(alpha, actualHat []float64) error {
	size := len(actualHat)
	d := 1.0
	for i, h := range actualHat {
		if i == size-1 {
			h = 1
		}
		if math.IsNaN(h) || h < 0 || h > 1 {
			return fmt.Errorf("%w: hat[%d]=%v", ErrBadHat, i, h)
		}
		alpha[i] = d * h
		d -= alpha[i]
	}
	return nil
}

// realizedMakespan computes the makespan of the actual execution: the
// pipeline recurrence with actual retained loads and actual speeds.
func realizedMakespan(z, actualAlpha, actualW []float64) float64 {
	var arrive, consumed, mk float64
	for j := range actualAlpha {
		if j > 0 {
			consumed += actualAlpha[j-1]
			arrive += (1 - consumed) * z[j]
		}
		if actualAlpha[j] > 0 {
			if f := arrive + actualAlpha[j]*actualW[j]; f > mk {
				mk = f
			}
		}
	}
	return mk
}
