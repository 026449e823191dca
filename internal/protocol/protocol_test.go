package protocol

import (
	"math"
	"testing"

	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/fault"
	"dlsmech/internal/payment"
	"dlsmech/internal/sign"
	"dlsmech/internal/xrand"
)

const tol = 1e-9

func testNet(t *testing.T) *dlt.Network {
	t.Helper()
	n, err := dlt.NewNetwork([]float64{1, 2, 1.5, 3}, []float64{0.2, 0.1, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// randomChainNet draws a random m-hop chain with processor times in
// [0.5, 4) and link times in [0.05, 0.5).
func randomChainNet(r *xrand.Rand, m int) *dlt.Network {
	w := make([]float64, m+1)
	z := make([]float64, m)
	for i := range w {
		w[i] = r.Uniform(0.5, 4)
	}
	for i := range z {
		z[i] = r.Uniform(0.05, 0.5)
	}
	n, err := dlt.NewNetwork(w, z)
	if err != nil {
		panic(err)
	}
	return n
}

func runWith(t *testing.T, n *dlt.Network, prof agent.Profile, cfg core.Config, seed uint64) *Result {
	t.Helper()
	res, err := Run(Params{Net: n, Profile: prof, Cfg: cfg, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParamValidation(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	cfg := core.DefaultConfig()
	if _, err := Run(Params{Net: n, Profile: agent.AllTruthful(2), Cfg: cfg}); err == nil {
		t.Fatal("short profile accepted")
	}
	if _, err := Run(Params{Net: n, Profile: agent.AllTruthful(4).WithDeviant(0, agent.Overbid(2)), Cfg: cfg}); err == nil {
		t.Fatal("dishonest root accepted")
	}
	if _, err := Run(Params{Net: n, Profile: agent.AllTruthful(4), Cfg: core.Config{Fine: 1, AuditProb: 0}}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Run(Params{Net: n, Profile: agent.AllTruthful(4), Cfg: cfg, LambdaUnit: 2}); err == nil {
		t.Fatal("invalid lambda unit accepted")
	}
	bad := &dlt.Network{W: []float64{-1}, Z: []float64{0}}
	if _, err := Run(Params{Net: bad, Profile: agent.AllTruthful(1), Cfg: cfg}); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestTruthfulRunCompletes(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	res := runWith(t, n, agent.AllTruthful(4), core.DefaultConfig(), 1)
	if !res.Completed {
		t.Fatalf("truthful run terminated: %s", res.TermReason)
	}
	if len(res.Detections) != 0 {
		t.Fatalf("truthful run produced detections: %+v", res.Detections)
	}
	if !res.SolutionFound {
		t.Fatal("truthful run lost the solution")
	}
	if !res.Ledger.NetZero(1e-9) {
		t.Fatal("ledger not conserved")
	}
}

func TestTruthfulMatchesAnalyticCore(t *testing.T) {
	t.Parallel()
	// The protocol must realize exactly the economics of internal/core.
	n := testNet(t)
	cfg := core.DefaultConfig()
	res := runWith(t, n, agent.AllTruthful(4), cfg, 2)
	want, err := core.EvaluateTruthful(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Utilities {
		if math.Abs(res.Utilities[i]-want.Payments[i].Utility) > 1e-9 {
			t.Fatalf("U_%d protocol %v vs core %v", i, res.Utilities[i], want.Payments[i].Utility)
		}
		if math.Abs(res.Retained[i]-want.ActualAlpha[i]) > 1e-9 {
			t.Fatalf("retained_%d protocol %v vs core %v", i, res.Retained[i], want.ActualAlpha[i])
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	prof := agent.AllTruthful(4).WithDeviant(2, agent.Shedder(0.5))
	a := runWith(t, n, prof, core.DefaultConfig(), 7)
	b := runWith(t, n, prof, core.DefaultConfig(), 7)
	if len(a.Detections) != len(b.Detections) {
		t.Fatal("detections differ across identical runs")
	}
	for i := range a.Utilities {
		if a.Utilities[i] != b.Utilities[i] {
			t.Fatalf("utility %d differs: %v vs %v", i, a.Utilities[i], b.Utilities[i])
		}
	}
}

func TestContradictorCaught(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	prof := agent.AllTruthful(4).WithDeviant(2, agent.Contradictor())
	cfg := core.DefaultConfig()
	res := runWith(t, n, prof, cfg, 3)
	if res.Completed {
		t.Fatal("contradiction did not terminate the run")
	}
	ds := res.DetectionsFor(2)
	if len(ds) != 1 || ds[0].Violation != ViolationContradiction {
		t.Fatalf("detections %+v", res.Detections)
	}
	if ds[0].Reporter != 1 {
		t.Fatalf("reporter %d, want predecessor 1", ds[0].Reporter)
	}
	// Fine flows: deviant −F, reporter +F.
	if got := res.Ledger.Balance(2); math.Abs(got+cfg.Fine) > tol {
		t.Fatalf("deviant balance %v, want %v", got, -cfg.Fine)
	}
	if got := res.Ledger.Balance(1); math.Abs(got-cfg.Fine) > tol {
		t.Fatalf("reporter balance %v, want %v", got, cfg.Fine)
	}
	// Terminated run: no computation, so utilities are just the transfers.
	if math.Abs(res.Utilities[2]+cfg.Fine) > tol {
		t.Fatalf("deviant utility %v", res.Utilities[2])
	}
}

func TestMiscomputerCaught(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	prof := agent.AllTruthful(4).WithDeviant(1, agent.Miscomputer())
	res := runWith(t, n, prof, core.DefaultConfig(), 4)
	if res.Completed {
		t.Fatal("wrong computation did not terminate the run")
	}
	ds := res.DetectionsFor(1)
	if len(ds) != 1 || ds[0].Violation != ViolationWrongCompute {
		t.Fatalf("detections %+v", res.Detections)
	}
	if ds[0].Reporter != 2 {
		t.Fatalf("reporter %d, want successor 2", ds[0].Reporter)
	}
	if res.Utilities[1] >= 0 {
		t.Fatalf("miscomputer utility %v, want negative", res.Utilities[1])
	}
}

// TestPhaseTwoFailureDistributesNoLoad pins the outcome of a round that fails
// in Phase II: P0 and P1 may already be working on Phase III when the abort
// reaches them, but no load counts as distributed, so retained loads are
// zero and every utility is exactly the processor's ledger balance,
// however far the abort raced.
func TestPhaseTwoFailureDistributesNoLoad(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	prof := agent.AllTruthful(4).WithDeviant(1, agent.Miscomputer())
	for seed := uint64(1); seed <= 20; seed++ {
		res := runWith(t, n, prof, core.DefaultConfig(), seed)
		if res.Completed || res.Failure == nil || res.Failure.Phase != fault.PhaseAlloc {
			t.Fatalf("seed %d: want a Phase II failure, got completed=%v failure=%v",
				seed, res.Completed, res.Failure)
		}
		for i := range res.Retained {
			if res.Retained[i] != 0 {
				t.Fatalf("seed %d: P%d retained %v in a round that distributed no load",
					seed, i, res.Retained[i])
			}
			if res.Utilities[i] != res.Ledger.Balance(i) {
				t.Fatalf("seed %d: U_%d = %v, want ledger balance %v",
					seed, i, res.Utilities[i], res.Ledger.Balance(i))
			}
		}
	}
}

func TestMiscomputerAtRootBoundary(t *testing.T) {
	t.Parallel()
	// The root's immediate successor validates G_1 (all items root-signed);
	// a miscomputing P1 is caught by P2.
	n := testNet(t)
	prof := agent.AllTruthful(4).WithDeviant(3, agent.Miscomputer())
	// P3 is terminal: it sends no G, so MiscomputeD cannot fire; run completes.
	res := runWith(t, n, prof, core.DefaultConfig(), 5)
	if !res.Completed {
		t.Fatalf("terminal 'miscomputer' has nothing to miscompute: %s", res.TermReason)
	}
}

func TestShedderCaughtAndUnprofitable(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	cfg := core.DefaultConfig()
	honest := runWith(t, n, agent.AllTruthful(4), cfg, 6)
	prof := agent.AllTruthful(4).WithDeviant(1, agent.Shedder(0.4))
	res := runWith(t, n, prof, cfg, 6)
	if !res.Completed {
		t.Fatalf("shedding should not terminate the run: %s", res.TermReason)
	}
	ds := res.DetectionsFor(1)
	if len(ds) != 1 || ds[0].Violation != ViolationOverload {
		t.Fatalf("detections %+v", res.Detections)
	}
	if ds[0].Reporter != 2 {
		t.Fatalf("reporter %d, want victim 2", ds[0].Reporter)
	}
	// The fine exceeds F (it includes the victim's extra work).
	if ds[0].Fine <= cfg.Fine {
		t.Fatalf("overload fine %v should exceed F=%v", ds[0].Fine, cfg.Fine)
	}
	// Net effect: the deviant ends worse off than honest play…
	if res.Utilities[1] >= honest.Utilities[1] {
		t.Fatalf("shedding profitable after fine: %v vs honest %v", res.Utilities[1], honest.Utilities[1])
	}
	// …and the victim at least as well off (recompense + reward F).
	if res.Utilities[2] < honest.Utilities[2]-tol {
		t.Fatalf("victim worse off: %v vs honest %v", res.Utilities[2], honest.Utilities[2])
	}
}

func TestVictimComputesExtraLoad(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	prof := agent.AllTruthful(4).WithDeviant(1, agent.Shedder(0.5))
	res := runWith(t, n, prof, core.DefaultConfig(), 8)
	honest := runWith(t, n, agent.AllTruthful(4), core.DefaultConfig(), 8)
	// The victim P2 computes strictly more than planned; P3 stays on plan
	// (the victim absorbs the excess rather than forwarding it).
	if res.Retained[2] <= honest.Retained[2]+tol {
		t.Fatal("victim did not absorb the dumped load")
	}
	if math.Abs(res.Retained[3]-honest.Retained[3]) > 1e-9 {
		t.Fatalf("terminal load moved: %v vs %v", res.Retained[3], honest.Retained[3])
	}
}

func TestFalseAccuserFined(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	cfg := core.DefaultConfig()
	prof := agent.AllTruthful(4).WithDeviant(2, agent.FalseAccuser())
	res := runWith(t, n, prof, cfg, 9)
	if !res.Completed {
		t.Fatalf("false accusation should not terminate: %s", res.TermReason)
	}
	ds := res.DetectionsFor(2)
	if len(ds) != 1 || ds[0].Violation != ViolationFalseAccuse {
		t.Fatalf("detections %+v", res.Detections)
	}
	// The falsely accused predecessor is rewarded.
	honest := runWith(t, n, agent.AllTruthful(4), cfg, 9)
	if res.Utilities[1] <= honest.Utilities[1] {
		t.Fatal("accused predecessor not made better off")
	}
	if res.Utilities[2] >= honest.Utilities[2] {
		t.Fatal("false accusation was not costly")
	}
}

func TestOverchargerDeterrence(t *testing.T) {
	t.Parallel()
	// Over many seeds the audit lottery catches the overcharger with
	// frequency ≈ q, and its average utility is strictly below honest play
	// (the F/q fine dominates the (1−q) undetected gains).
	n := testNet(t)
	cfg := core.DefaultConfig() // q = 0.25
	delta := 0.5
	prof := agent.AllTruthful(4).WithDeviant(2, agent.Overcharger(delta))
	const runs = 120
	var caught int
	var devSum, honSum float64
	for s := uint64(0); s < runs; s++ {
		res := runWith(t, n, prof, cfg, s)
		if !res.Completed {
			t.Fatalf("seed %d terminated: %s", s, res.TermReason)
		}
		if len(res.DetectionsFor(2)) > 0 {
			caught++
		}
		devSum += res.Utilities[2]
		honest := runWith(t, n, agent.AllTruthful(4), cfg, s)
		honSum += honest.Utilities[2]
	}
	rate := float64(caught) / runs
	if rate < 0.1 || rate > 0.45 {
		t.Fatalf("audit rate %v, expected ≈ q=0.25", rate)
	}
	if devSum/runs >= honSum/runs {
		t.Fatalf("overcharging profitable on average: %v vs %v", devSum/runs, honSum/runs)
	}
}

func TestOverchargerCaughtPaysAuditFine(t *testing.T) {
	t.Parallel()
	// Find a seed where P2 is audited and verify the exact fine F/q.
	n := testNet(t)
	cfg := core.DefaultConfig()
	prof := agent.AllTruthful(4).WithDeviant(2, agent.Overcharger(0.5))
	for s := uint64(0); s < 64; s++ {
		res := runWith(t, n, prof, cfg, s)
		ds := res.DetectionsFor(2)
		if len(ds) == 0 {
			continue
		}
		if ds[0].Violation != ViolationOvercharge {
			t.Fatalf("violation %v", ds[0].Violation)
		}
		if math.Abs(ds[0].Fine-cfg.AuditFine()) > tol {
			t.Fatalf("audit fine %v, want %v", ds[0].Fine, cfg.AuditFine())
		}
		fines := res.Ledger.EntriesOfKind(payment.KindAuditFine)
		if len(fines) != 1 || fines[0].From != 2 {
			t.Fatalf("audit fine entries %+v", fines)
		}
		return
	}
	t.Fatal("no seed in 0..63 audited P2; audit lottery broken")
}

func TestHonestBillsSurviveAudit(t *testing.T) {
	t.Parallel()
	// Honest processors pass audits on every seed: no detections ever.
	n := testNet(t)
	cfg := core.Config{Fine: 10, AuditProb: 1} // audit everyone
	res := runWith(t, n, agent.AllTruthful(4), cfg, 11)
	if len(res.Detections) != 0 {
		t.Fatalf("honest bills failed audit: %+v", res.Detections)
	}
	want, _ := core.EvaluateTruthful(n, cfg)
	for i := range res.Utilities {
		if math.Abs(res.Utilities[i]-want.Payments[i].Utility) > 1e-9 {
			t.Fatalf("audited utility %d: %v vs %v", i, res.Utilities[i], want.Payments[i].Utility)
		}
	}
}

func TestSlowExecutorLosesBonus(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	cfg := core.DefaultConfig()
	honest := runWith(t, n, agent.AllTruthful(4), cfg, 12)
	prof := agent.AllTruthful(4).WithDeviant(2, agent.Slacker(2))
	res := runWith(t, n, prof, cfg, 12)
	if !res.Completed || len(res.Detections) != 0 {
		t.Fatalf("slacking is not finable, only unprofitable: %+v", res.Detections)
	}
	if res.Utilities[2] >= honest.Utilities[2] {
		t.Fatalf("slacking profitable: %v vs %v", res.Utilities[2], honest.Utilities[2])
	}
	// And it matches the analytic layer.
	rep := core.TruthfulReport(n)
	rep.ActualW = append([]float64(nil), n.W...)
	rep.ActualW[2] *= 2
	want, err := core.Evaluate(n, rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Utilities[2]-want.Payments[2].Utility) > 1e-9 {
		t.Fatalf("slacker utility %v vs core %v", res.Utilities[2], want.Payments[2].Utility)
	}
}

func TestMisreportersUnprofitableInProtocol(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	cfg := core.DefaultConfig()
	honest := runWith(t, n, agent.AllTruthful(4), cfg, 13)
	for _, b := range []agent.Behavior{agent.Overbid(1.5), agent.Underbid(0.6)} {
		prof := agent.AllTruthful(4).WithDeviant(2, b)
		res := runWith(t, n, prof, cfg, 13)
		if !res.Completed || len(res.Detections) != 0 {
			t.Fatalf("%s: misreporting is legal, not finable", b.Label)
		}
		if res.Utilities[2] > honest.Utilities[2]+tol {
			t.Fatalf("%s profitable: %v vs %v", b.Label, res.Utilities[2], honest.Utilities[2])
		}
	}
}

func TestCorruptorAndSolutionBonus(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	cfg := core.DefaultConfig()
	cfg.SolutionBonus = 0.05
	honest := runWith(t, n, agent.AllTruthful(4), cfg, 14)
	if !honest.SolutionFound {
		t.Fatal("honest run lost the solution")
	}
	// Every computing processor earned S.
	if len(honest.Ledger.EntriesOfKind(payment.KindSolutionBon)) != 3 {
		t.Fatalf("solution bonuses: %+v", honest.Ledger.EntriesOfKind(payment.KindSolutionBon))
	}
	prof := agent.AllTruthful(4).WithDeviant(1, agent.Corruptor())
	res := runWith(t, n, prof, cfg, 14)
	if res.SolutionFound {
		t.Fatal("corruption left the solution intact")
	}
	if len(res.Ledger.EntriesOfKind(payment.KindSolutionBon)) != 0 {
		t.Fatal("solution bonus paid despite corruption")
	}
	// Theorem 5.2: with S enabled, corruption strictly reduces the
	// corruptor's welfare; without S it would be utility-neutral.
	if res.Utilities[1] >= honest.Utilities[1] {
		t.Fatalf("corruption not punished by S: %v vs %v", res.Utilities[1], honest.Utilities[1])
	}
	cfgNoS := core.DefaultConfig()
	resNoS := runWith(t, n, prof, cfgNoS, 14)
	honestNoS := runWith(t, n, agent.AllTruthful(4), cfgNoS, 14)
	if math.Abs(resNoS.Utilities[1]-honestNoS.Utilities[1]) > tol {
		t.Fatalf("without S corruption should be utility-neutral: %v vs %v",
			resNoS.Utilities[1], honestNoS.Utilities[1])
	}
}

func TestSilentVictimCollusion(t *testing.T) {
	t.Parallel()
	// A shedder with a colluding (silent) victim goes undetected; the
	// coalition's joint welfare strictly beats honest play — the known
	// limit of individual-deviation mechanisms (experiment A11).
	n := testNet(t)
	cfg := core.DefaultConfig()
	honest := runWith(t, n, agent.AllTruthful(4), cfg, 19)
	prof := agent.AllTruthful(4).
		WithDeviant(1, agent.Shedder(0.4)).
		WithDeviant(2, agent.SilentVictim())
	res := runWith(t, n, prof, cfg, 19)
	if !res.Completed {
		t.Fatalf("collusion run terminated: %s", res.TermReason)
	}
	if len(res.Detections) != 0 {
		t.Fatalf("collusion should be invisible: %+v", res.Detections)
	}
	coalition := res.Utilities[1] + res.Utilities[2]
	honestCoalition := honest.Utilities[1] + honest.Utilities[2]
	if coalition <= honestCoalition {
		t.Fatalf("coalition did not profit: %v vs %v", coalition, honestCoalition)
	}
	// The victim alone is exactly made whole by the recompense E.
	if math.Abs(res.Utilities[2]-honest.Utilities[2]) > tol {
		t.Fatalf("silent victim's own utility moved: %v vs %v", res.Utilities[2], honest.Utilities[2])
	}
}

func TestSilentVictimAloneIsNoop(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	cfg := core.DefaultConfig()
	honest := runWith(t, n, agent.AllTruthful(4), cfg, 20)
	prof := agent.AllTruthful(4).WithDeviant(2, agent.SilentVictim())
	res := runWith(t, n, prof, cfg, 20)
	for i := range res.Utilities {
		if math.Abs(res.Utilities[i]-honest.Utilities[i]) > tol {
			t.Fatalf("unilateral silence changed utility %d: %v vs %v",
				i, res.Utilities[i], honest.Utilities[i])
		}
	}
}

func TestHeavyUnderbidStillUnprofitable(t *testing.T) {
	t.Parallel()
	// An extreme underbid can push the realized equivalent past the
	// predecessor's bid, making the bonus negative; the ledger then charges
	// it. Either way the deviation must not pay.
	n := testNet(t)
	cfg := core.DefaultConfig()
	honest := runWith(t, n, agent.AllTruthful(4), cfg, 23)
	res := runWith(t, n, agent.AllTruthful(4).WithDeviant(2, agent.Underbid(0.1)), cfg, 23)
	if !res.Completed {
		t.Fatalf("underbidding is legal; run terminated: %s", res.TermReason)
	}
	if res.Utilities[2] > honest.Utilities[2]+tol {
		t.Fatalf("extreme underbid profitable: %v vs %v", res.Utilities[2], honest.Utilities[2])
	}
}

func TestMultipleSimultaneousDeviants(t *testing.T) {
	t.Parallel()
	// A shedder and an independent overcharger in the same run: both are
	// handled, the victim stays whole, honest bystanders keep their
	// truthful welfare.
	n := testNet(t)
	cfg := core.DefaultConfig()
	honest := runWith(t, n, agent.AllTruthful(4), cfg, 24)
	prof := agent.AllTruthful(4).
		WithDeviant(1, agent.Shedder(0.5)).
		WithDeviant(3, agent.Overcharger(0.4))
	res := runWith(t, n, prof, cfg, 24)
	if !res.Completed {
		t.Fatalf("run terminated: %s", res.TermReason)
	}
	if len(res.DetectionsFor(1)) != 1 {
		t.Fatalf("shedder not detected alongside overcharger: %+v", res.Detections)
	}
	if res.Utilities[1] >= honest.Utilities[1] {
		t.Fatal("shedder profited in the multi-deviant run")
	}
	// The victim (P2) is honest and must be at least as well off.
	if res.Utilities[2] < honest.Utilities[2]-tol {
		t.Fatalf("honest victim worse off: %v vs %v", res.Utilities[2], honest.Utilities[2])
	}
}

func TestSingleProcessorNetwork(t *testing.T) {
	t.Parallel()
	n, _ := dlt.NewNetwork([]float64{2}, nil)
	res := runWith(t, n, agent.AllTruthful(1), core.DefaultConfig(), 15)
	if !res.Completed {
		t.Fatalf("degenerate run terminated: %s", res.TermReason)
	}
	if math.Abs(res.Retained[0]-1) > tol {
		t.Fatalf("root retained %v", res.Retained[0])
	}
	if math.Abs(res.Utilities[0]) > tol {
		t.Fatalf("root utility %v", res.Utilities[0])
	}
}

func TestStatsCounted(t *testing.T) {
	t.Parallel()
	n := testNet(t)
	res := runWith(t, n, agent.AllTruthful(4), core.DefaultConfig(), 16)
	if res.Stats.Messages == 0 || res.Stats.Signatures == 0 || res.Stats.Verifications == 0 {
		t.Fatalf("stats not counted: %+v", res.Stats)
	}
	// Data-plane messages: 3 bids + 3 G + 3 loads + 4 bills = 13.
	if res.Stats.Messages != 13 {
		t.Fatalf("messages %d, want 13", res.Stats.Messages)
	}
}

func TestLargerChainTruthful(t *testing.T) {
	t.Parallel()
	r := xrand.New(99)
	w := make([]float64, 33)
	z := make([]float64, 32)
	for i := range w {
		w[i] = r.Uniform(0.5, 4)
	}
	for i := range z {
		z[i] = r.Uniform(0.05, 0.6)
	}
	n, err := dlt.NewNetwork(w, z)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	res := runWith(t, n, agent.AllTruthful(33), cfg, 17)
	if !res.Completed || len(res.Detections) != 0 {
		t.Fatalf("large truthful run failed: %s %+v", res.TermReason, res.Detections)
	}
	want, _ := core.EvaluateTruthful(n, cfg)
	for i := range res.Utilities {
		if math.Abs(res.Utilities[i]-want.Payments[i].Utility) > 1e-8 {
			t.Fatalf("U_%d %v vs %v", i, res.Utilities[i], want.Payments[i].Utility)
		}
	}
}

// Property: for random single-deviant profiles, the ledger always conserves
// money and honest non-adjacent bystanders are never fined.
func TestQuickProtocolInvariants(t *testing.T) {
	t.Parallel()
	behaviors := []func() agent.Behavior{
		func() agent.Behavior { return agent.Overbid(1.5) },
		func() agent.Behavior { return agent.Underbid(0.7) },
		func() agent.Behavior { return agent.Slacker(2) },
		func() agent.Behavior { return agent.Shedder(0.5) },
		func() agent.Behavior { return agent.Contradictor() },
		func() agent.Behavior { return agent.Miscomputer() },
		func() agent.Behavior { return agent.Overcharger(0.5) },
		func() agent.Behavior { return agent.FalseAccuser() },
	}
	cfg := core.DefaultConfig()
	r := xrand.New(99)
	for trial := 0; trial < 40; trial++ {
		m := 2 + r.Intn(5)
		n := randomChainNet(r, m)
		pos := 1 + r.Intn(m)
		b := behaviors[r.Intn(len(behaviors))]()
		prof := agent.AllTruthful(n.Size()).WithDeviant(pos, b)
		res, err := Run(Params{Net: n, Profile: prof, Cfg: cfg, Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d (%s@%d): %v", trial, b.Label, pos, err)
		}
		if !res.Ledger.NetZero(1e-9) {
			t.Fatalf("trial %d: ledger not conserved", trial)
		}
		for _, d := range res.Detections {
			if d.Offender != pos {
				t.Fatalf("trial %d (%s@%d): innocent P%d fined (%+v)", trial, b.Label, pos, d.Offender, d)
			}
		}
	}
}

func TestEchoMismatchArbitration(t *testing.T) {
	t.Parallel()
	// Exercise the subpoena path directly: build a run, then hand the
	// arbiter an echo dispute in both configurations.
	n := testNet(t)
	prof := agent.AllTruthful(4)
	cfg := core.DefaultConfig()
	// A fresh runner with registered keys (we do not start goroutines).
	res, err := Run(Params{Net: n, Profile: prof, Cfg: cfg, Seed: 21})
	if err != nil || !res.Completed {
		t.Fatal("setup run failed")
	}
	// Re-create the internal runner to poke the arbiter directly.
	r := &runner{params: Params{Net: n, Profile: prof, Cfg: cfg, Seed: 21}, size: 4}
	registerTestSigners(r)
	r.ledger = payment.NewLedger()
	r.abort = make(chan struct{})
	r.procs = make([]*procState, 4)
	for i := range r.procs {
		r.procs[i] = &procState{}
	}
	r.arb = newArbiter(r)

	// P2 sent bid 1.7; P1 echoed 1.9. The subpoenaed inbound message at P1
	// matches the echo (1.9) → P2 disowned its own signature → P2 fined.
	bid19 := r.signers[2].Sign(encodeSlot(slotEquivBid, 2, 1.9))
	r.procs[1].receivedBidMsg = bid19
	g := gMsg{EchoEquiv: r.signers[1].Sign(encodeSlot(slotEquivBid, 2, 1.9))}
	r.arb.reportEchoMismatch(2, g, 1.7)
	if len(r.arb.detections) != 1 || r.arb.detections[0].Offender != 2 {
		t.Fatalf("disowning reporter not fined: %+v", r.arb.detections)
	}

	// Fresh arbiter: the stored inbound bid (1.7) differs from the echo
	// (1.9) → the predecessor fabricated the echo → P1 fined.
	r2 := &runner{params: r.params, size: 4}
	registerTestSigners(r2)
	r2.ledger = payment.NewLedger()
	r2.abort = make(chan struct{})
	r2.procs = make([]*procState, 4)
	for i := range r2.procs {
		r2.procs[i] = &procState{}
	}
	r2.arb = newArbiter(r2)
	r2.procs[1].receivedBidMsg = r2.signers[2].Sign(encodeSlot(slotEquivBid, 2, 1.7))
	g2 := gMsg{EchoEquiv: r2.signers[1].Sign(encodeSlot(slotEquivBid, 2, 1.9))}
	r2.arb.reportEchoMismatch(2, g2, 1.7)
	if len(r2.arb.detections) != 1 || r2.arb.detections[0].Offender != 1 {
		t.Fatalf("fabricated echo not pinned on predecessor: %+v", r2.arb.detections)
	}
}

// registerTestSigners equips a bare runner with keys and a PKI for
// arbiter-level tests that do not start processor goroutines.
func registerTestSigners(r *runner) {
	r.pki = sign.NewPKI()
	for i := 0; i < r.size; i++ {
		s := sign.NewSigner(i, r.params.Seed)
		r.signers = append(r.signers, s)
		r.pki.MustRegister(i, s.Public())
	}
}
