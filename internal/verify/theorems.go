package verify

import (
	"fmt"
	"math"
	"time"

	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/obs"
	"dlsmech/internal/payment"
	"dlsmech/internal/protocol"
)

// Scenario is one conformance cell: a network of true values plus the
// mechanism configuration and the seed that drives every protocol run
// replayed against it.
type Scenario struct {
	Net  *dlt.Network
	Cfg  core.Config
	Seed uint64
	// LambdaUnit overrides the Λ block granularity of protocol runs (0 =
	// protocol default).
	LambdaUnit float64
	// Recovery overrides the failure detectors of protocol runs. The zero
	// value selects a short detector budget suited to an in-process suite
	// (25ms base timeout, one retransmission) rather than the conservative
	// protocol default.
	Recovery protocol.RecoveryConfig
	// Hooks receives observability callbacks from every protocol run the
	// checkers replay (nil disables).
	Hooks obs.Hooks
}

func (sc *Scenario) recovery() protocol.RecoveryConfig {
	if sc.Recovery != (protocol.RecoveryConfig{}) {
		return sc.Recovery
	}
	return protocol.RecoveryConfig{Timeout: 25 * time.Millisecond, Retries: 1, Backoff: 2}
}

// verdict seeds the common fields of a Verdict for this scenario.
func (sc *Scenario) verdict(checker, theorem string) Verdict {
	return Verdict{
		Checker: checker,
		Theorem: theorem,
		Seed:    sc.Seed,
		Size:    sc.Net.Size(),
		Passed:  true,
		Margin:  math.Inf(1),
	}
}

// fail marks v violated with the given inequality, keeping the first
// violation and the worst margin.
func fail(v *Verdict, margin float64, inequality string, detail string) {
	if v.Passed {
		v.Passed = false
		v.Violated = inequality
		v.Detail = detail
	}
	note(v, margin)
}

// note folds a margin into the verdict (the worst slack wins).
func note(v *Verdict, margin float64) {
	if margin < v.Margin {
		v.Margin = margin
	}
}

// seal finalizes the verdict for serialization.
func seal(v Verdict) Verdict {
	v.Margin = finite(v.Margin)
	return v
}

// errVerdict reports an operational failure (a run that errored) as a
// violation: a conformance suite that cannot execute its scenario must not
// report success.
func errVerdict(v Verdict, err error) Verdict {
	v.Passed = false
	v.Violated = "scenario-error"
	v.Detail = err.Error()
	return seal(v)
}

// skip marks the verdict passed with an explanatory detail, for scenarios
// structurally inapplicable to the cell (e.g. interior positions on m=1).
func skip(v Verdict, reason string) Verdict {
	v.Detail = "skipped: " + reason
	v.Margin = 0
	return v
}

// deviantPos picks the deviant's position on a chain with m strategic
// processors: interior when the strategy needs a successor (victim), -1 when
// no valid position exists.
func deviantPos(m int, needsSuccessor bool) int {
	if needsSuccessor {
		if m < 2 {
			return -1
		}
		if m == 2 {
			return 1
		}
		return 2
	}
	if m < 2 {
		return 1
	}
	return 2
}

// runRound executes one protocol round for the scenario.
func (sc *Scenario) runRound(profile agent.Profile, cfg core.Config, s *Strategy, pos int, rec protocol.RecoveryConfig) (*protocol.Result, error) {
	p := protocol.Params{
		Net:        sc.Net,
		Profile:    profile,
		Cfg:        cfg,
		Seed:       sc.Seed,
		LambdaUnit: sc.LambdaUnit,
		Recovery:   rec,
		Hooks:      sc.Hooks,
	}
	if s != nil && s.Inject != nil {
		p.Inject = s.Inject(sc.Seed, pos)
	}
	return protocol.Run(p)
}

// CheckTheorem21 verifies the optimality structure of Algorithm 1 (Theorem
// 2.1): the allocation is feasible, every processor participates (α_i > 0),
// and all participants finish simultaneously.
func CheckTheorem21(sc *Scenario) Verdict {
	v := sc.verdict("theorem-2.1", "2.1")
	plan, err := dlt.SolveBoundary(sc.Net)
	if err != nil {
		return errVerdict(v, err)
	}
	if err := dlt.ValidateAllocation(sc.Net, plan.Alpha, GainTol); err != nil {
		fail(&v, -1, "alpha is a feasible allocation", err.Error())
		return seal(v)
	}
	for i, a := range plan.Alpha {
		note(&v, a)
		if !(a > 0) {
			fail(&v, a, "alpha_i > 0 for all i (full participation)",
				fmt.Sprintf("alpha[%d]=%v", i, a))
		}
	}
	ts := dlt.FinishTimes(sc.Net, plan.Alpha)
	hi := ts[0]
	for _, t := range ts {
		if t > hi {
			hi = t
		}
	}
	spread := dlt.FinishSpread(sc.Net, plan.Alpha)
	bound := GainTol * math.Max(1, plan.Makespan())
	note(&v, bound-spread)
	if spread > bound {
		fail(&v, bound-spread, "T_i(alpha) equal for all i (equal finish times)",
			fmt.Sprintf("finish-time spread %.3g exceeds %.3g", spread, bound))
	}
	if d := math.Abs(hi - plan.Makespan()); d > bound {
		fail(&v, bound-d, "max_i T_i(alpha) = wbar_0 (makespan identity)",
			fmt.Sprintf("|max finish - wbar_0| = %.3g", d))
	}
	return seal(v)
}

// CheckTheorem51 plays every detectable catalog strategy through a full
// protocol round and verifies Theorem 5.1 (and Lemma 5.1's case analysis):
// the deviation is detected from signed evidence, the detection names the
// deviant and only the deviant, fines hit nobody else, and the deviation is
// unprofitable next to the honest baseline.
func CheckTheorem51(sc *Scenario) []Verdict {
	m := sc.Net.M()
	size := sc.Net.Size()
	unit := sc.LambdaUnit
	if unit == 0 {
		unit = 1.0 / 4096
	}

	// Honest baselines, one per audit-probability variant actually used.
	baselines := map[float64]*protocol.Result{}
	baseline := func(cfg core.Config) (*protocol.Result, error) {
		if r, ok := baselines[cfg.AuditProb]; ok {
			return r, nil
		}
		r, err := sc.runRound(agent.AllTruthful(size), cfg, nil, 0, sc.recovery())
		if err == nil {
			baselines[cfg.AuditProb] = r
		}
		return r, err
	}

	var out []Verdict
	for _, s := range Catalog() {
		if !s.Expect.Detected {
			continue
		}
		s := s
		v := sc.verdict("theorem-5.1", "5.1")
		v.Strategy = s.Name
		pos := deviantPos(m, s.NeedsSuccessor)
		if pos < 0 {
			out = append(out, skip(v, "needs an interior deviant; m="+fmt.Sprint(m)))
			continue
		}
		if s.Expect.SlowDetection && m > 16 {
			out = append(out, skip(v, "timeout-driven detection; restricted to m <= 16"))
			continue
		}
		cfg := sc.Cfg
		if s.Expect.NeedsCertainAudit {
			cfg.AuditProb = 1 // make the audit lottery deterministic
		}
		rec := sc.recovery()
		if s.Expect.SlowDetection {
			// 10 ms is the floor below which detectors fire on healthy
			// goroutines of a loaded machine and misname the silent peer.
			rec = protocol.RecoveryConfig{Timeout: 10 * time.Millisecond, Retries: 2, Backoff: 2}
		}
		if s.Expect.SlackLimited {
			// The Λ attestation slack bounds what an overload grievance can
			// substantiate: skip sheds that fall inside (or near) it.
			plan, err := dlt.SolveBoundary(sc.Net)
			if err != nil {
				out = append(out, errVerdict(v, err))
				continue
			}
			shed := plan.Alpha[pos] * (1 - s.Behavior.RetainFactor)
			slack := float64(pos+2) * unit
			if shed <= 4*slack {
				out = append(out, skip(v, fmt.Sprintf("shed %.3g within Λ slack %.3g", shed, slack)))
				continue
			}
		}

		honest, err := baseline(cfg)
		if err != nil {
			out = append(out, errVerdict(v, err))
			continue
		}
		profile := agent.AllTruthful(size).WithDeviant(pos, s.Behavior)
		res, err := sc.runRound(profile, cfg, &s, pos, rec)
		if err != nil {
			out = append(out, errVerdict(v, err))
			continue
		}

		// (a) The deviation is detected and attributed.
		found := false
		for _, d := range res.Detections {
			if d.Offender == pos && d.Violation == s.Expect.Violation {
				found = true
			}
		}
		if !found {
			fail(&v, -1, "every deviation is detected (Thm 5.1)",
				fmt.Sprintf("no %s detection names P%d (got %v)", s.Expect.Violation, pos, res.Detections))
		}
		// (b) Only the deviant is ever named or fined.
		for _, d := range res.Detections {
			if d.Offender != pos {
				fail(&v, -1, "only deviants are detected (Thm 5.1)",
					fmt.Sprintf("detection %s names honest P%d", d.Violation, d.Offender))
			}
		}
		fines := append(res.Ledger.EntriesOfKind(payment.KindFine),
			res.Ledger.EntriesOfKind(payment.KindAuditFine)...)
		for _, e := range fines {
			if e.From != pos {
				fail(&v, -1, "fines hit only deviants (Thm 5.1)",
					fmt.Sprintf("fine of %.3g charged to honest P%d", e.Amount, e.From))
			}
		}
		if s.Expect.Unfined && len(fines) > 0 {
			fail(&v, -1, "unattributable corruption is excluded, not fined",
				fmt.Sprintf("%d fine entries for a forged message", len(fines)))
		}
		if !s.Expect.Unfined && found {
			deviantFined := false
			for _, e := range fines {
				if e.From == pos {
					deviantFined = true
				}
			}
			if !deviantFined {
				fail(&v, -1, "a detected deviation is fined F (Thm 5.1)",
					fmt.Sprintf("detection without a fine for P%d", pos))
			}
		}
		// (c) Phase structure: contradictions and wrong computations break
		// the chain before load moves; the rest complete.
		if res.Completed != !s.Expect.Terminates {
			fail(&v, -1, "round termination matches the deviation class",
				fmt.Sprintf("Completed=%v, want %v", res.Completed, !s.Expect.Terminates))
		}
		// (d) The deviation is unprofitable.
		gain := res.Utilities[pos] - honest.Utilities[pos]
		note(&v, GainTol-gain)
		if gain > GainTol {
			fail(&v, GainTol-gain, "U_deviant <= U_honest (deviation unprofitable)",
				fmt.Sprintf("P%d gained %.3g by %s", pos, gain, s.Name))
		}
		out = append(out, seal(v))
	}
	return out
}

// CheckTheorem52 verifies the selfish-and-annoying analysis (Theorem 5.2
// with the solution-bonus extension): data corruption is unattributable — no
// detection, no fine — but destroys the solution, so with S > 0 the
// corruptor pays S for its vandalism.
func CheckTheorem52(sc *Scenario) Verdict {
	v := sc.verdict("theorem-5.2", "5.2")
	v.Strategy = "corruptor"
	m := sc.Net.M()
	pos := deviantPos(m, true) // corruption happens on the forwarded data
	if pos < 0 {
		return skip(v, "corruption needs a successor to forward to; m="+fmt.Sprint(m))
	}
	cfg := sc.Cfg
	if cfg.SolutionBonus <= 0 {
		cfg.SolutionBonus = 0.5
	}
	size := sc.Net.Size()
	honest, err := sc.runRound(agent.AllTruthful(size), cfg, nil, 0, sc.recovery())
	if err != nil {
		return errVerdict(v, err)
	}
	if !honest.SolutionFound {
		fail(&v, -1, "honest rounds find the solution", "SolutionFound=false without corruption")
	}
	profile := agent.AllTruthful(size).WithDeviant(pos, agent.Corruptor())
	res, err := sc.runRound(profile, cfg, nil, 0, sc.recovery())
	if err != nil {
		return errVerdict(v, err)
	}
	if res.SolutionFound {
		fail(&v, -1, "corrupted data destroys the solution", "SolutionFound=true despite corruption")
	}
	if !res.Completed {
		fail(&v, -1, "corruption does not break the chain", "round terminated")
	}
	if n := len(res.Detections); n != 0 {
		fail(&v, -1, "corruption is unattributable (no detection)",
			fmt.Sprintf("%d detections: %v", n, res.Detections))
	}
	// The corruptor loses (at least) the solution bonus S.
	loss := honest.Utilities[pos] - res.Utilities[pos]
	note(&v, loss-cfg.SolutionBonus+GainTol)
	if loss < cfg.SolutionBonus-GainTol {
		fail(&v, loss-cfg.SolutionBonus, "U_corruptor drops by S (solution bonus forfeited)",
			fmt.Sprintf("P%d lost only %.3g < S=%.3g", pos, loss, cfg.SolutionBonus))
	}
	return seal(v)
}

// CheckTheorem53 verifies strategyproofness (Lemma/Theorem 5.3) three ways:
// the shared analytic grid inequality (case (i): no bid misreport gains),
// the slow-execution inequality (case (ii)), and a protocol cross-check in
// which actual misreporting agents earn their utilities from real signed
// bills.
func CheckTheorem53(sc *Scenario) Verdict {
	v := sc.verdict("theorem-5.3", "5.3")
	net, cfg := sc.Net, sc.Cfg

	// Case (i) analytically, on the canonical grid, every agent.
	gain, err := StrategyproofGain(net, cfg)
	if err != nil {
		return errVerdict(v, err)
	}
	note(&v, GainTol-gain)
	if gain > GainTol {
		fail(&v, GainTol-gain, "U_i(t_i) >= U_i(w_i) for all bids w_i (case (i))",
			fmt.Sprintf("bid grid found a gain of %.3g", gain))
	}

	// Case (ii): truthful bid, deliberately slow execution never helps.
	truthful, err := core.EvaluateTruthful(net, cfg)
	if err != nil {
		return errVerdict(v, err)
	}
	for i := 1; i <= net.M(); i++ {
		for _, slow := range []float64{1.5, 3} {
			u, err := core.UtilityAtSpeed(net, i, slow, cfg)
			if err != nil {
				return errVerdict(v, err)
			}
			g := u - truthful.Payments[i].Utility
			note(&v, GainTol-g)
			if g > GainTol {
				fail(&v, GainTol-g, "U_i(t_i) >= U_i(wtilde_i) for wtilde_i > t_i (case (ii))",
					fmt.Sprintf("agent %d gained %.3g at slowdown %.2g", i, g, slow))
			}
		}
	}

	// Protocol cross-check: the same inequality on utilities realized from
	// actual signed bills in a full round.
	size := net.Size()
	honest, err := sc.runRound(agent.AllTruthful(size), cfg, nil, 0, sc.recovery())
	if err != nil {
		return errVerdict(v, err)
	}
	pos := deviantPos(net.M(), false)
	for _, b := range []agent.Behavior{agent.Underbid(0.5), agent.Overbid(1.5), agent.Slacker(1.5)} {
		res, err := sc.runRound(agent.AllTruthful(size).WithDeviant(pos, b), cfg, nil, 0, sc.recovery())
		if err != nil {
			return errVerdict(v, err)
		}
		g := res.Utilities[pos] - honest.Utilities[pos]
		note(&v, GainTol-g)
		if g > GainTol {
			fail(&v, GainTol-g, "protocol utilities realize case (i)/(ii)",
				fmt.Sprintf("P%d gained %.3g via %s in a signed round", pos, g, b.Label))
		}
	}
	return seal(v)
}

// CheckTheorem54 verifies voluntary participation (Lemma/Theorem 5.4):
// truthful utilities are non-negative, the obedient root's utility is
// identically zero (4.3), the truthful bonus has its closed form
// B_j = w_{j-1} − wbar_{j-1}, and the distributed protocol realizes exactly
// the analytic utilities.
func CheckTheorem54(sc *Scenario) Verdict {
	v := sc.verdict("theorem-5.4", "5.4")
	net, cfg := sc.Net, sc.Cfg

	minU, rootU, err := core.ParticipationViolation(net, cfg)
	if err != nil {
		return errVerdict(v, err)
	}
	note(&v, minU+GainTol)
	if minU < -GainTol {
		fail(&v, minU, "U_j >= 0 under truth-telling (participation)",
			fmt.Sprintf("min truthful utility %.3g", minU))
	}
	note(&v, GainTol-math.Abs(rootU))
	if math.Abs(rootU) > GainTol {
		fail(&v, -math.Abs(rootU), "U_0 = 0 (the root is obedient, 4.3)",
			fmt.Sprintf("root utility %.3g", rootU))
	}
	gap, err := core.BonusIdentityGap(net, cfg)
	if err != nil {
		return errVerdict(v, err)
	}
	note(&v, GainTol-gap)
	if gap > GainTol {
		fail(&v, GainTol-gap, "B_j = w_{j-1} − wbar_{j-1} truthfully (Lemma 5.4)",
			fmt.Sprintf("bonus identity gap %.3g", gap))
	}

	// The protocol's settled ledger must realize the analytic utilities.
	truthful, err := core.EvaluateTruthful(net, cfg)
	if err != nil {
		return errVerdict(v, err)
	}
	res, err := sc.runRound(agent.AllTruthful(net.Size()), cfg, nil, 0, sc.recovery())
	if err != nil {
		return errVerdict(v, err)
	}
	if !res.Completed {
		fail(&v, -1, "honest rounds complete", "TermReason="+res.TermReason)
		return seal(v)
	}
	for j := 0; j < net.Size(); j++ {
		d := math.Abs(res.Utilities[j] - truthful.Payments[j].Utility)
		note(&v, GainTol-d)
		if d > GainTol {
			fail(&v, GainTol-d, "protocol utilities equal the analytic mechanism",
				fmt.Sprintf("P%d: protocol %.9g vs analytic %.9g", j, res.Utilities[j], truthful.Payments[j].Utility))
		}
	}
	if !res.Ledger.NetZero(1e-6) {
		fail(&v, -1, "the settled ledger balances to zero",
			fmt.Sprintf("mechanism outlay %.3g does not close the books", res.Ledger.MechanismOutlay()))
	}
	return seal(v)
}
