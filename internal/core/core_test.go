package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dlsmech/internal/dlt"
	"dlsmech/internal/xrand"
)

const tol = 1e-9

func randomChain(r *xrand.Rand, m int) *dlt.Network {
	w := make([]float64, m+1)
	z := make([]float64, m)
	for i := range w {
		w[i] = r.Uniform(0.5, 5)
	}
	for i := range z {
		z[i] = r.Uniform(0.05, 1)
	}
	n, err := dlt.NewNetwork(w, z)
	if err != nil {
		panic(err)
	}
	return n
}

func mustEval(t *testing.T, n *dlt.Network, rep Report, cfg Config) *Outcome {
	t.Helper()
	out, err := Evaluate(n, rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Fine: -1, AuditProb: 0.5},
		{Fine: 1, AuditProb: 0},
		{Fine: 1, AuditProb: 1.5},
		{Fine: math.NaN(), AuditProb: 0.5},
		{Fine: 1, AuditProb: 0.5, SolutionBonus: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestAuditFine(t *testing.T) {
	t.Parallel()
	c := Config{Fine: 10, AuditProb: 0.25}
	if got := c.AuditFine(); math.Abs(got-40) > tol {
		t.Fatalf("AuditFine = %v, want 40", got)
	}
}

func TestOverloadPenalty(t *testing.T) {
	t.Parallel()
	c := Config{Fine: 10, AuditProb: 1}
	if got := c.OverloadPenalty(0.2, 3); math.Abs(got-10.6) > tol {
		t.Fatalf("OverloadPenalty = %v, want 10.6", got)
	}
}

func TestEvaluateValidation(t *testing.T) {
	t.Parallel()
	n, _ := dlt.NewNetwork([]float64{1, 2, 3}, []float64{0.1, 0.2})
	cfg := DefaultConfig()
	cases := []struct {
		name string
		rep  Report
		err  error
	}{
		{"short bids", Report{Bids: []float64{1, 2}}, ErrLengths},
		{"bad bid", Report{Bids: []float64{1, -2, 3}}, ErrBadBid},
		{"root lies", Report{Bids: []float64{9, 2, 3}}, ErrRootBid},
		{"overclocked", Report{Bids: []float64{1, 2, 3}, ActualW: []float64{1, 1, 3}}, ErrOverclocked},
		{"short actualW", Report{Bids: []float64{1, 2, 3}, ActualW: []float64{1}}, ErrLengths},
		{"bad hat", Report{Bids: []float64{1, 2, 3}, ActualHat: []float64{0.5, 2, 1}}, ErrBadHat},
		{"short hat", Report{Bids: []float64{1, 2, 3}, ActualHat: []float64{1}}, ErrLengths},
	}
	for _, c := range cases {
		if _, err := Evaluate(n, c.rep, cfg); !errors.Is(err, c.err) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.err)
		}
	}
	if _, err := Evaluate(n, TruthfulReport(n), Config{Fine: 1, AuditProb: 0}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRootUtilityZero(t *testing.T) {
	t.Parallel()
	// (4.3): the root's compensation exactly cancels its cost.
	r := xrand.New(1)
	for trial := 0; trial < 20; trial++ {
		n := randomChain(r, 1+r.Intn(10))
		out := mustEval(t, n, TruthfulReport(n), DefaultConfig())
		if math.Abs(out.Payments[0].Utility) > tol {
			t.Fatalf("root utility %v", out.Payments[0].Utility)
		}
		if out.Payments[0].Compensation != -out.Payments[0].Valuation {
			t.Fatalf("root compensation %v vs valuation %v",
				out.Payments[0].Compensation, out.Payments[0].Valuation)
		}
	}
}

func TestTruthfulUtilityIsBonus(t *testing.T) {
	t.Parallel()
	// Honest run: V + C cancel, E = 0, so U_j = B_j = w_{j-1} − w̄_{j-1}.
	r := xrand.New(2)
	n := randomChain(r, 8)
	out := mustEval(t, n, TruthfulReport(n), DefaultConfig())
	for j := 1; j < n.Size(); j++ {
		p := out.Payments[j]
		if math.Abs(p.Recompense) > tol {
			t.Fatalf("honest recompense %v", p.Recompense)
		}
		if math.Abs(p.Utility-p.Bonus) > tol {
			t.Fatalf("U_%d = %v, bonus %v", j, p.Utility, p.Bonus)
		}
		want := n.W[j-1] - out.Plan.WBar[j-1]
		if math.Abs(p.Bonus-want) > tol {
			t.Fatalf("B_%d = %v, want w_{j-1}−w̄_{j-1} = %v", j, p.Bonus, want)
		}
	}
}

func TestBonusIdentityGap(t *testing.T) {
	t.Parallel()
	r := xrand.New(3)
	for trial := 0; trial < 10; trial++ {
		n := randomChain(r, 1+r.Intn(12))
		gap, err := BonusIdentityGap(n, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if gap > tol {
			t.Fatalf("bonus identity gap %v", gap)
		}
	}
}

func TestVoluntaryParticipation(t *testing.T) {
	t.Parallel()
	// Theorem 5.4 on random instances.
	r := xrand.New(4)
	for trial := 0; trial < 50; trial++ {
		n := randomChain(r, 1+r.Intn(20))
		minU, rootU, err := ParticipationViolation(n, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if minU < -tol {
			t.Fatalf("trial %d: truthful agent with negative utility %v", trial, minU)
		}
		if math.Abs(rootU) > tol {
			t.Fatalf("trial %d: root utility %v", trial, rootU)
		}
	}
}

func TestStrategyproofBidGrid(t *testing.T) {
	t.Parallel()
	// Theorem 5.3: on a dense bid grid no agent gains over truthful.
	factors := make([]float64, 0, 61)
	for g := 0.5; g <= 2.001; g += 0.025 {
		factors = append(factors, g)
	}
	r := xrand.New(5)
	for trial := 0; trial < 25; trial++ {
		n := randomChain(r, 1+r.Intn(8))
		worst, err := StrategyproofViolation(n, factors, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if worst > 1e-9 {
			t.Fatalf("trial %d on %v: bid deviation gains %v", trial, n, worst)
		}
	}
}

func TestUtilityCurvePeaksAtTruth(t *testing.T) {
	t.Parallel()
	n, _ := dlt.NewNetwork([]float64{1, 2, 1.5, 3}, []float64{0.2, 0.1, 0.3})
	factors := []float64{0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0}
	for i := 1; i <= n.M(); i++ {
		utils, err := UtilityCurve(n, i, factors, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for k := range utils {
			if utils[k] > utils[best] {
				best = k
			}
		}
		if factors[best] != 1.0 {
			t.Fatalf("agent %d: utility peaks at factor %v (curve %v)", i, factors[best], utils)
		}
	}
}

func TestSlowExecutionHurts(t *testing.T) {
	t.Parallel()
	// Case (ii) of Lemma 5.3: running slower than capacity cannot help.
	r := xrand.New(6)
	n := randomChain(r, 6)
	for i := 1; i <= n.M(); i++ {
		honest, err := UtilityAtSpeed(n, i, 1.0, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		prev := honest
		for _, slow := range []float64{1.1, 1.5, 2.0, 4.0} {
			u, err := UtilityAtSpeed(n, i, slow, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if u > honest+tol {
				t.Fatalf("agent %d gains %v by running %vx slower", i, u-honest, slow)
			}
			if u > prev+tol {
				t.Fatalf("agent %d: utility not monotone in slowdown at %v", i, slow)
			}
			prev = u
		}
	}
}

func TestUtilityAtSpeedRejectsFast(t *testing.T) {
	t.Parallel()
	n, _ := dlt.NewNetwork([]float64{1, 2}, []float64{0.1})
	if _, err := UtilityAtSpeed(n, 1, 0.5, DefaultConfig()); err == nil {
		t.Fatal("slowdown < 1 accepted")
	}
	if _, err := UtilityAtSpeed(n, 0, 1.5, DefaultConfig()); err == nil {
		t.Fatal("root accepted as strategic agent")
	}
}

func TestUtilityAtBidRejectsRoot(t *testing.T) {
	t.Parallel()
	n, _ := dlt.NewNetwork([]float64{1, 2}, []float64{0.1})
	if _, err := UtilityAtBid(n, 0, 1.5, DefaultConfig()); err == nil {
		t.Fatal("root accepted")
	}
	if _, err := UtilityAtBid(n, 5, 1.5, DefaultConfig()); err == nil {
		t.Fatal("out-of-range agent accepted")
	}
}

func TestLoadSheddingEconomics(t *testing.T) {
	t.Parallel()
	// Phase III before fines: the deviant gains exactly the cost of the
	// work it shed, and the victim is exactly made whole by E (recompense).
	n, _ := dlt.NewNetwork([]float64{1, 2, 1.5, 3}, []float64{0.2, 0.1, 0.3})
	cfg := DefaultConfig()
	honest := mustEval(t, n, TruthfulReport(n), cfg)
	for i := 1; i < n.M(); i++ {
		for _, f := range []float64{0, 0.25, 0.5, 0.9} {
			devGain, vicGain, err := CheatingProfit(n, i, f, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wantGain float64
			if f == 0 {
				// α̃ = 0 zeroes the entire payment (4.6): the deviant
				// forfeits its bonus, so total shedding is a loss.
				wantGain = -honest.Payments[i].Utility
				if devGain > 0 {
					t.Fatalf("total shedding profitable (agent %d): %v", i, devGain)
				}
			} else {
				// Partial shedding keeps C = α·w̃ while saving the cost of
				// the shed work — profitable until caught.
				wantGain = (1 - f) * honest.Plan.Alpha[i] * n.W[i]
				if devGain <= 0 {
					t.Fatalf("shedding not profitable pre-fine (agent %d, f=%v): %v", i, f, devGain)
				}
			}
			if math.Abs(devGain-wantGain) > tol {
				t.Fatalf("deviant gain %v, want %v (agent %d, f=%v)", devGain, wantGain, i, f)
			}
			if math.Abs(vicGain) > tol {
				t.Fatalf("victim utility moved by %v; recompense must cancel the dump", vicGain)
			}
		}
	}
}

func TestFineExceedsSheddingProfit(t *testing.T) {
	t.Parallel()
	// Theorem 5.1's premise, checked on the default config: F is larger
	// than any shedding profit on unit loads.
	r := xrand.New(7)
	cfg := DefaultConfig()
	worst := 0.0
	for trial := 0; trial < 50; trial++ {
		n := randomChain(r, 2+r.Intn(8))
		for i := 1; i < n.M(); i++ {
			gain, _, err := CheatingProfit(n, i, 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if gain > worst {
				worst = gain
			}
		}
	}
	if worst >= cfg.Fine {
		t.Fatalf("cheating profit %v exceeds fine %v", worst, cfg.Fine)
	}
}

func TestZeroLoadZeroPayment(t *testing.T) {
	t.Parallel()
	// (4.6): α̃_j = 0 ⇒ Q_j = 0.
	n, _ := dlt.NewNetwork([]float64{1, 1, 1}, []float64{0.1, 0.1})
	rep := TruthfulReport(n)
	rep.ActualHat = []float64{1, 0, 1} // root hoards everything; P1, P2 idle
	out := mustEval(t, n, rep, DefaultConfig())
	for j := 1; j < n.Size(); j++ {
		if out.ActualAlpha[j] != 0 {
			t.Fatalf("processor %d unexpectedly got load %v", j, out.ActualAlpha[j])
		}
		if out.Payments[j].Total != 0 || out.Payments[j].Utility != 0 {
			t.Fatalf("idle processor %d paid %v", j, out.Payments[j].Total)
		}
	}
}

func TestSolutionBonusPaid(t *testing.T) {
	t.Parallel()
	n, _ := dlt.NewNetwork([]float64{1, 2}, []float64{0.1})
	cfg := DefaultConfig()
	cfg.SolutionBonus = 0.05
	rep := TruthfulReport(n)
	rep.SolutionFound = true
	out := mustEval(t, n, rep, cfg)
	if math.Abs(out.Payments[1].Solution-0.05) > tol {
		t.Fatalf("solution bonus %v", out.Payments[1].Solution)
	}
	// Not found: no bonus.
	rep.SolutionFound = false
	out = mustEval(t, n, rep, cfg)
	if out.Payments[1].Solution != 0 {
		t.Fatalf("bonus paid without a solution: %v", out.Payments[1].Solution)
	}
	// Disabled: no bonus even with a solution.
	rep.SolutionFound = true
	out = mustEval(t, n, rep, DefaultConfig())
	if out.Payments[1].Solution != 0 {
		t.Fatalf("bonus paid while disabled: %v", out.Payments[1].Solution)
	}
}

// wHatAdjusted is wHatAdjustedInto into a fresh slice.
func wHatAdjusted(plan *dlt.Allocation, bids, actualW []float64) []float64 {
	wh := make([]float64, len(bids))
	wHatAdjustedInto(wh, plan, bids, actualW)
	return wh
}

func TestWHatAdjustedCases(t *testing.T) {
	t.Parallel()
	n, _ := dlt.NewNetwork([]float64{1, 2, 3}, []float64{0.1, 0.2})
	plan := dlt.MustSolveBoundary(n)
	bids := n.W
	// Everyone at bid speed: ŵ_k = w̄_k for interior, ŵ_m = w̃_m.
	wh := wHatAdjusted(plan, bids, n.W)
	if math.Abs(wh[1]-plan.WBar[1]) > tol {
		t.Fatalf("ŵ_1 = %v, want w̄_1 = %v", wh[1], plan.WBar[1])
	}
	if wh[2] != n.W[2] {
		t.Fatalf("ŵ_m = %v, want %v", wh[2], n.W[2])
	}
	// Interior slower than bid: ŵ_k = α̂_k·w̃_k.
	slow := []float64{1, 4, 3}
	wh = wHatAdjusted(plan, bids, slow)
	if math.Abs(wh[1]-plan.AlphaHat[1]*4) > tol {
		t.Fatalf("slow ŵ_1 = %v, want %v", wh[1], plan.AlphaHat[1]*4)
	}
	// Interior faster than bid (overbid scenario): unchanged w̄_k.
	bidsHigh := []float64{1, 3, 3}
	planHigh := dlt.MustSolveBoundary(&dlt.Network{W: bidsHigh, Z: n.Z})
	wh = wHatAdjusted(planHigh, bidsHigh, []float64{1, 2, 3})
	if math.Abs(wh[1]-planHigh.WBar[1]) > tol {
		t.Fatalf("fast ŵ_1 = %v, want w̄_1 = %v", wh[1], planHigh.WBar[1])
	}
}

func TestCascadeActual(t *testing.T) {
	t.Parallel()
	alpha := make([]float64, 3)
	if err := cascadeActualInto(alpha, []float64{0.5, 0.5, 0.25}); err != nil {
		t.Fatal(err)
	}
	// Terminal forced to 1: 0.5, 0.25, 0.25.
	want := []float64{0.5, 0.25, 0.25}
	for i := range want {
		if math.Abs(alpha[i]-want[i]) > tol {
			t.Fatalf("cascade[%d] = %v, want %v", i, alpha[i], want[i])
		}
	}
	var sum float64
	for _, a := range alpha {
		sum += a
	}
	if math.Abs(sum-1) > tol {
		t.Fatalf("cascade sums to %v", sum)
	}
	if err := cascadeActualInto(make([]float64, 2), []float64{2, 1}); err == nil {
		t.Fatal("invalid hat accepted")
	}
}

func TestRealizedMakespanMatchesDLTOnPlan(t *testing.T) {
	t.Parallel()
	r := xrand.New(8)
	n := randomChain(r, 9)
	out := mustEval(t, n, TruthfulReport(n), DefaultConfig())
	want := dlt.Makespan(n, out.Plan.Alpha)
	if math.Abs(out.Makespan-want) > tol {
		t.Fatalf("realized makespan %v, want %v", out.Makespan, want)
	}
}

func TestUnderbiddingOverloadsAndHurts(t *testing.T) {
	t.Parallel()
	// An agent that underbids receives more load than truthful but earns
	// less utility.
	n, _ := dlt.NewNetwork([]float64{1, 2, 2}, []float64{0.2, 0.2})
	cfg := DefaultConfig()
	honest := mustEval(t, n, TruthfulReport(n), cfg)
	rep := TruthfulReport(n)
	rep.Bids[1] = 1.0 // true value 2
	under := mustEval(t, n, rep, cfg)
	if under.Plan.Alpha[1] <= honest.Plan.Alpha[1] {
		t.Fatal("underbid did not attract more load")
	}
	if under.Payments[1].Utility >= honest.Payments[1].Utility {
		t.Fatal("underbidding did not reduce utility")
	}
}

func TestOverbiddingShedsLoadAndHurts(t *testing.T) {
	t.Parallel()
	n, _ := dlt.NewNetwork([]float64{1, 2, 2}, []float64{0.2, 0.2})
	cfg := DefaultConfig()
	honest := mustEval(t, n, TruthfulReport(n), cfg)
	rep := TruthfulReport(n)
	rep.Bids[1] = 4.0
	over := mustEval(t, n, rep, cfg)
	if over.Plan.Alpha[1] >= honest.Plan.Alpha[1] {
		t.Fatal("overbid did not shed load")
	}
	if over.Payments[1].Utility >= honest.Payments[1].Utility {
		t.Fatal("overbidding did not reduce utility")
	}
}

// Property: strategyproofness and voluntary participation hold on random
// networks with random single-agent deviations.
func TestQuickStrategyproofRandom(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	f := func(seed uint64, mRaw, agentRaw uint8, factorRaw uint16) bool {
		m := int(mRaw%10) + 1
		r := xrand.New(seed)
		n := randomChain(r, m)
		i := 1 + int(agentRaw)%m
		factor := 0.3 + 1.7*float64(factorRaw)/65535
		truthful, err := UtilityAtBid(n, i, n.W[i], cfg)
		if err != nil {
			return false
		}
		if truthful < -tol {
			return false // voluntary participation
		}
		dev, err := UtilityAtBid(n, i, n.W[i]*factor, cfg)
		if err != nil {
			return false
		}
		return dev <= truthful+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: joint deviation of bid and execution speed never beats honest.
func TestQuickJointDeviation(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	f := func(seed uint64, mRaw, agentRaw uint8, fb, fs uint16) bool {
		m := int(mRaw%8) + 1
		r := xrand.New(seed)
		n := randomChain(r, m)
		i := 1 + int(agentRaw)%m
		bidFactor := 0.4 + 1.6*float64(fb)/65535
		slowFactor := 1 + 2*float64(fs)/65535
		truthful, err := UtilityAtBid(n, i, n.W[i], cfg)
		if err != nil {
			return false
		}
		rep := TruthfulReport(n)
		rep.Bids[i] = n.W[i] * bidFactor
		rep.ActualW = append([]float64(nil), n.W...)
		rep.ActualW[i] = n.W[i] * slowFactor
		out, err := Evaluate(n, rep, cfg)
		if err != nil {
			return false
		}
		return out.Payments[i].Utility <= truthful+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWHatAdjustedPinnedSmall pins ŵ numerically for the m = 1 and m = 2
// edge cases, the chains short enough that (4.10)-(4.11) can be carried out
// by hand. These are the sizes the uniform k < m loop has to get right
// without the old root special case.
func TestWHatAdjustedPinnedSmall(t *testing.T) {
	t.Parallel()

	// m = 1: W = [1,2], z_1 = 0.5. α̂_0 = (2+0.5)/(1+2+0.5) = 2.5/3.5 and
	// w̄_0 = α̂_0·1 = 2.5/3.5.
	n1, err := dlt.NewNetwork([]float64{1, 2}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	plan1 := dlt.MustSolveBoundary(n1)
	cases1 := []struct {
		name    string
		actualW []float64
		want    []float64
	}{
		{"truthful", []float64{1, 2}, []float64{2.5 / 3.5, 2}},
		{"terminal slowed", []float64{1, 3}, []float64{2.5 / 3.5, 3}},
		{"root slowed", []float64{1.4, 2}, []float64{2.5 / 3.5 * 1.4, 2}},
	}
	for _, tc := range cases1 {
		wh := wHatAdjusted(plan1, n1.W, tc.actualW)
		for k := range tc.want {
			if math.Abs(wh[k]-tc.want[k]) > tol {
				t.Fatalf("m=1 %s: ŵ_%d = %v, want %v", tc.name, k, wh[k], tc.want[k])
			}
		}
	}

	// m = 2: W = [1,2,4], z = [0.5,0.25]. Backward sweep by hand:
	// α̂_1 = (4+0.25)/(2+4+0.25) = 0.68, w̄_1 = 1.36,
	// α̂_0 = (1.36+0.5)/(1+1.36+0.5) = 1.86/2.86 = w̄_0.
	n2, err := dlt.NewNetwork([]float64{1, 2, 4}, []float64{0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	plan2 := dlt.MustSolveBoundary(n2)
	cases2 := []struct {
		name    string
		actualW []float64
		want    []float64
	}{
		{"truthful", []float64{1, 2, 4}, []float64{1.86 / 2.86, 1.36, 4}},
		{"interior slowed", []float64{1, 2.5, 4}, []float64{1.86 / 2.86, 0.68 * 2.5, 4}},
		{"terminal slowed", []float64{1, 2, 5}, []float64{1.86 / 2.86, 1.36, 5}},
	}
	for _, tc := range cases2 {
		wh := wHatAdjusted(plan2, n2.W, tc.actualW)
		for k := range tc.want {
			if math.Abs(wh[k]-tc.want[k]) > tol {
				t.Fatalf("m=2 %s: ŵ_%d = %v, want %v", tc.name, k, wh[k], tc.want[k])
			}
		}
	}
}

func outcomesEqual(a, b *Outcome) bool {
	if len(a.Payments) != len(b.Payments) || a.Makespan != b.Makespan {
		return false
	}
	for j := range a.Payments {
		if a.Payments[j] != b.Payments[j] {
			return false
		}
	}
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eq(a.ActualAlpha, b.ActualAlpha) && eq(a.ActualW, b.ActualW) &&
		eq(a.WHat, b.WHat) && eq(a.Plan.Alpha, b.Plan.Alpha) &&
		eq(a.Plan.AlphaHat, b.Plan.AlphaHat) && eq(a.Plan.WBar, b.Plan.WBar) &&
		eq(a.Plan.D, b.Plan.D) && eq(a.BidNet.W, b.BidNet.W) && eq(a.BidNet.Z, b.BidNet.Z)
}

// TestEvaluateIntoMatchesEvaluate reuses one Outcome across networks of
// varying size (including shrinking back down, which exercises slice reuse)
// and checks bit-identical results against fresh Evaluate calls.
func TestEvaluateIntoMatchesEvaluate(t *testing.T) {
	t.Parallel()
	r := xrand.New(42)
	cfg := DefaultConfig()
	var reused Outcome
	for _, m := range []int{1, 5, 9, 3, 2, 9, 1} {
		n := randomChain(r, m)
		rep := TruthfulReport(n)
		if m >= 2 {
			rep.Bids[1] *= 1.3 // a lie, to exercise the non-truthful paths
			rep.ActualW = append([]float64(nil), n.W...)
			rep.ActualW[m] *= 1.1
		}
		want := mustEval(t, n, rep, cfg)
		if err := EvaluateInto(&reused, n, rep, cfg); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !outcomesEqual(&reused, want) {
			t.Fatalf("m=%d: EvaluateInto diverged from Evaluate", m)
		}
	}
}

// TestEvaluateIntoZeroAlloc is the acceptance criterion for the hot path:
// steady-state EvaluateInto performs no heap allocations.
func TestEvaluateIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the allocation contract")
	}
	r := xrand.New(7)
	n := randomChain(r, 15)
	rep := TruthfulReport(n)
	cfg := DefaultConfig()
	var out Outcome
	if err := EvaluateInto(&out, n, rep, cfg); err != nil { // warm the slices
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := EvaluateInto(&out, n, rep, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EvaluateInto allocated %v times per run, want 0", allocs)
	}
}

// TestPropertySweepsSteadyStateAllocFree checks that the pooled property
// helpers stop allocating once their scratches are warm.
func TestPropertySweepsSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; run without -race for the allocation contract")
	}
	r := xrand.New(11)
	n := randomChain(r, 8)
	cfg := DefaultConfig()
	warm := func() {
		if _, err := UtilityAtBid(n, 2, n.W[2]*1.2, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := UtilityAtSpeed(n, 2, 1.5, cfg); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ParticipationViolation(n, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := BonusIdentityGap(n, cfg); err != nil {
			t.Fatal(err)
		}
		if _, _, err := CheatingProfit(n, 2, 0.5, cfg); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(50, warm); allocs != 0 {
		t.Fatalf("property sweep allocated %v times per run, want 0", allocs)
	}
}
