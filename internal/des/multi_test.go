package des

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dlsmech/internal/dlt"
	"dlsmech/internal/xrand"
)

func TestRunMultiSingleRoundMatchesRun(t *testing.T) {
	// One installment must reproduce the single-wave simulator exactly.
	r := xrand.New(1)
	for trial := 0; trial < 15; trial++ {
		n := randomChain(r, 1+r.Intn(10))
		rounds, err := EqualInstallments(n, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := RunMulti(MultiSpec{Net: n, Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		single, err := RunPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(multi.Makespan-single.Makespan) > 1e-9 {
			t.Fatalf("trial %d: multi %v vs single %v", trial, multi.Makespan, single.Makespan)
		}
		for i := range multi.Finish {
			if math.Abs(multi.Finish[i]-single.Finish[i]) > 1e-9 {
				t.Fatalf("trial %d: finish[%d] %v vs %v", trial, i, multi.Finish[i], single.Finish[i])
			}
		}
	}
}

func TestRunMultiConservesLoad(t *testing.T) {
	r := xrand.New(2)
	for trial := 0; trial < 15; trial++ {
		n := randomChain(r, 1+r.Intn(8))
		rounds, _ := EqualInstallments(n, 2.5, 1+r.Intn(8))
		res, err := RunMulti(MultiSpec{Net: n, Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, x := range res.Retained {
			total += x
		}
		if math.Abs(total-2.5) > 1e-9 {
			t.Fatalf("trial %d: computed %v of 2.5", trial, total)
		}
	}
}

func TestRunMultiSameFractionsCannotBeatSingleOptimum(t *testing.T) {
	// With the single-round optimal fractions the root is the bottleneck
	// (it computes α₀·w₀ = T from t = 0), so extra installments change
	// nothing — multiround only pays off with re-optimized fractions.
	n, _ := dlt.NewNetwork([]float64{1, 1, 1, 1, 1}, []float64{0.4, 0.4, 0.4, 0.4})
	single, _ := RunPlan(n)
	rounds, _ := EqualInstallments(n, 1, 16)
	res, err := RunMulti(MultiSpec{Net: n, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-single.Makespan) > 1e-9 {
		t.Fatalf("same-fraction multiround moved the makespan: %v vs %v", res.Makespan, single.Makespan)
	}
}

func TestRunMultiFluidBeatsSingleOptimum(t *testing.T) {
	// Fast links: fluid fractions + enough installments beat the
	// single-round optimum and approach the perfect-parallelism bound.
	n, _ := dlt.NewNetwork([]float64{1, 1, 1, 1, 1}, []float64{0.05, 0.05, 0.05, 0.05})
	single, _ := RunPlan(n)
	prev := math.Inf(1)
	best := math.Inf(1)
	for _, R := range []int{1, 2, 4, 8, 16, 32, 64} {
		rounds, err := FluidInstallments(n, 1, R)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunMulti(MultiSpec{Net: n, Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > prev+1e-9 {
			t.Fatalf("fluid R=%d worsened makespan: %v after %v", R, res.Makespan, prev)
		}
		prev = res.Makespan
		if res.Makespan < best {
			best = res.Makespan
		}
	}
	if best >= single.Makespan {
		t.Fatalf("fluid multiround never beat single-round optimum: %v vs %v", best, single.Makespan)
	}
	lower := 1.0 / 5.0 // Σ(1/w) = 5
	if best < lower-1e-9 {
		t.Fatalf("beat the parallelism bound: %v < %v", best, lower)
	}
	if best > lower*1.1 {
		t.Fatalf("64 fluid rounds should approach the bound: %v vs %v", best, lower)
	}
}

func TestRunMultiStartupPenalizesManyRounds(t *testing.T) {
	// With a per-transfer startup the curve turns: very many rounds lose.
	n, _ := dlt.NewNetwork([]float64{1, 1, 1, 1}, []float64{0.3, 0.3, 0.3})
	const startup = 0.05
	mk := func(R int) float64 {
		rounds, _ := EqualInstallments(n, 1, R)
		res, err := RunMulti(MultiSpec{Net: n, Rounds: rounds, StartupZ: startup})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	few := mk(2)
	many := mk(64)
	if many <= few {
		t.Fatalf("64 startup-laden rounds should lose to 2: %v vs %v", many, few)
	}
}

func TestRunMultiStartShrinksWithRounds(t *testing.T) {
	// Pipelining pulls the tail processor's first arrival toward zero,
	// even with unchanged fractions.
	n, _ := dlt.NewNetwork([]float64{1, 1, 1, 1, 1}, []float64{0.4, 0.4, 0.4, 0.4})
	start := func(R int) float64 {
		rounds, _ := EqualInstallments(n, 1, R)
		res, err := RunMulti(MultiSpec{Net: n, Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		return res.Start[4]
	}
	s1, s8 := start(1), start(8)
	if s8 >= s1 {
		t.Fatalf("tail start did not shrink: R=8 %v vs R=1 %v", s8, s1)
	}
	if s8 > s1/4 {
		t.Fatalf("8 installments should cut the ramp-up sharply: %v vs %v", s8, s1)
	}
}

func TestRunMultiValidation(t *testing.T) {
	n, _ := dlt.NewNetwork([]float64{1, 1}, []float64{0.2})
	sol := dlt.MustSolveBoundary(n)
	if _, err := RunMulti(MultiSpec{Rounds: []Round{{Load: 1, Hat: sol.AlphaHat}}}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := RunMulti(MultiSpec{Net: n}); err == nil {
		t.Fatal("no rounds accepted")
	}
	if _, err := RunMulti(MultiSpec{Net: n, Rounds: []Round{{Load: 0, Hat: sol.AlphaHat}}}); err == nil {
		t.Fatal("zero-load round accepted")
	}
	if _, err := RunMulti(MultiSpec{Net: n, Rounds: []Round{{Load: 1, Hat: []float64{0.5}}}}); err == nil {
		t.Fatal("short hat accepted")
	}
	if _, err := RunMulti(MultiSpec{Net: n, Rounds: []Round{{Load: 1, Hat: []float64{2, 1}}}}); err == nil {
		t.Fatal("invalid hat accepted")
	}
	if _, err := RunMulti(MultiSpec{Net: n, Rounds: []Round{{Load: 1, Hat: sol.AlphaHat}}, StartupZ: -1}); err == nil {
		t.Fatal("negative startup accepted")
	}
}

// Property: multiround makespan is bounded below by the compute lower bound
// (total work / aggregate speed) and above by the single-round makespan.
func TestQuickMultiBounds(t *testing.T) {
	f := func(seed uint64, mRaw, rRaw uint8) bool {
		m := int(mRaw%8) + 1
		R := int(rRaw%16) + 1
		r := xrand.New(seed)
		n := randomChain(r, m)
		rounds, err := EqualInstallments(n, 1, R)
		if err != nil {
			return false
		}
		res, err := RunMulti(MultiSpec{Net: n, Rounds: rounds})
		if err != nil {
			return false
		}
		single, err := RunPlan(n)
		if err != nil {
			return false
		}
		var invSum float64
		for _, w := range n.W {
			invSum += 1 / w
		}
		lower := 1 / invSum // perfect parallelism, no communication
		return res.Makespan >= lower-1e-9 && res.Makespan <= single.Makespan+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiIntervalsRecorded(t *testing.T) {
	n, _ := dlt.NewNetwork([]float64{1, 1, 1}, []float64{0.1, 0.1})
	rounds, _ := FluidInstallments(n, 1, 4)
	res, err := RunMulti(MultiSpec{Net: n, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	// Every processor computed 4 chunks; every non-root received 4.
	for i := 0; i < 3; i++ {
		if len(res.ComputeIntervals[i]) != 4 {
			t.Fatalf("P%d has %d compute intervals, want 4", i, len(res.ComputeIntervals[i]))
		}
		if i > 0 && len(res.RecvIntervals[i]) != 4 {
			t.Fatalf("P%d has %d recv intervals, want 4", i, len(res.RecvIntervals[i]))
		}
	}
	// Intervals on one CPU never overlap and total busy time matches the
	// retained load.
	for i := 0; i < 3; i++ {
		var busy float64
		for k, iv := range res.ComputeIntervals[i] {
			busy += iv.Duration()
			if k > 0 && iv.Start < res.ComputeIntervals[i][k-1].End-1e-12 {
				t.Fatalf("P%d chunks overlap", i)
			}
		}
		if math.Abs(busy-res.Retained[i]*n.W[i]) > 1e-9 {
			t.Fatalf("P%d busy %v, want %v", i, busy, res.Retained[i]*n.W[i])
		}
	}
}

func TestRenderMulti(t *testing.T) {
	n, _ := dlt.NewNetwork([]float64{1, 1, 1}, []float64{0.2, 0.2})
	rounds, _ := FluidInstallments(n, 1, 4)
	res, err := RunMulti(MultiSpec{Net: n, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt{Width: 48}.RenderMultiString(res)
	if !strings.Contains(out, "P0  comp") || !strings.Contains(out, "P2  comm") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "4 chunks") {
		t.Fatalf("chunk count missing:\n%s", out)
	}
	if !strings.Contains(out, "@") || !strings.Contains(out, "#") {
		t.Fatalf("missing glyphs:\n%s", out)
	}
	empty := Gantt{}.RenderMultiString(&MultiResult{})
	if !strings.Contains(empty, "empty schedule") {
		t.Fatalf("empty multiround chart: %q", empty)
	}
}
