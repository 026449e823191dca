package dlt

import (
	"math"
	"testing"
	"testing/quick"

	"dlsmech/internal/xrand"
)

const tol = 1e-9

// randomChain builds a random heterogeneous chain with m+1 processors.
func randomChain(r *xrand.Rand, m int) *Network {
	w := make([]float64, m+1)
	z := make([]float64, m)
	for i := range w {
		w[i] = r.Uniform(0.5, 5)
	}
	for i := range z {
		z[i] = r.Uniform(0.05, 1)
	}
	n, err := NewNetwork(w, z)
	if err != nil {
		panic(err)
	}
	return n
}

func TestSolveSingleProcessor(t *testing.T) {
	t.Parallel()
	n, err := NewNetwork([]float64{2.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SolveBoundary(n)
	if err != nil {
		t.Fatal(err)
	}
	if a.Alpha[0] != 1 || a.AlphaHat[0] != 1 {
		t.Fatalf("single processor must take everything: %+v", a)
	}
	if math.Abs(a.Makespan()-2.5) > tol {
		t.Fatalf("makespan %v, want 2.5", a.Makespan())
	}
}

func TestSolveTwoProcessorsClosedForm(t *testing.T) {
	t.Parallel()
	// For m=1: α̂_0 = (w1+z1)/(w0+w1+z1), makespan = α̂_0·w0.
	w0, w1, z1 := 2.0, 3.0, 0.5
	n, _ := NewNetwork([]float64{w0, w1}, []float64{z1})
	a := MustSolveBoundary(n)
	wantHat := (w1 + z1) / (w0 + w1 + z1)
	if math.Abs(a.AlphaHat[0]-wantHat) > tol {
		t.Fatalf("AlphaHat[0] = %v, want %v", a.AlphaHat[0], wantHat)
	}
	if math.Abs(a.Makespan()-wantHat*w0) > tol {
		t.Fatalf("makespan = %v, want %v", a.Makespan(), wantHat*w0)
	}
	// And both finish times agree with it.
	ts := FinishTimes(n, a.Alpha)
	for i, ti := range ts {
		if math.Abs(ti-a.Makespan()) > tol {
			t.Fatalf("T[%d] = %v, want %v", i, ti, a.Makespan())
		}
	}
}

func TestSolveAllocationSumsToOne(t *testing.T) {
	t.Parallel()
	r := xrand.New(1)
	for _, m := range []int{1, 2, 3, 7, 31, 127} {
		n := randomChain(r, m)
		a := MustSolveBoundary(n)
		if err := ValidateAllocation(n, a.Alpha, tol); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
	}
}

func TestTheorem21EqualFinishTimes(t *testing.T) {
	t.Parallel()
	// Theorem 2.1: at the optimum every processor participates and all
	// finish simultaneously.
	r := xrand.New(2)
	for trial := 0; trial < 50; trial++ {
		n := randomChain(r, 1+r.Intn(40))
		a := MustSolveBoundary(n)
		for i, ai := range a.Alpha {
			if ai <= 0 {
				t.Fatalf("trial %d: processor %d does not participate (α=%v)", trial, i, ai)
			}
		}
		if spread := FinishSpread(n, a.Alpha); spread > tol*a.Makespan() {
			t.Fatalf("trial %d: finish spread %v vs makespan %v", trial, spread, a.Makespan())
		}
	}
}

func TestWBarMatchesSuffixSolve(t *testing.T) {
	t.Parallel()
	// WBar[i] must equal the optimal makespan of the sub-chain P_i..P_m —
	// the reduction invariant (2.4).
	r := xrand.New(3)
	n := randomChain(r, 12)
	a := MustSolveBoundary(n)
	for i := 0; i <= n.M(); i++ {
		sub := MustSolveBoundary(n.Suffix(i))
		if math.Abs(a.WBar[i]-sub.Makespan()) > tol {
			t.Fatalf("WBar[%d] = %v, suffix makespan %v", i, a.WBar[i], sub.Makespan())
		}
	}
}

func TestMakespanEqualsWBar0(t *testing.T) {
	t.Parallel()
	r := xrand.New(4)
	for trial := 0; trial < 20; trial++ {
		n := randomChain(r, 1+r.Intn(20))
		a := MustSolveBoundary(n)
		if math.Abs(Makespan(n, a.Alpha)-a.WBar[0]) > tol {
			t.Fatalf("measured makespan %v != w̄_0 %v", Makespan(n, a.Alpha), a.WBar[0])
		}
	}
}

func TestSolveOptimalVsGridSearch(t *testing.T) {
	t.Parallel()
	// Brute-force the m=2 simplex on a fine grid; the solver must never be
	// worse and must be within grid resolution of the brute-force optimum.
	n, _ := NewNetwork([]float64{1.5, 2.0, 3.0}, []float64{0.3, 0.6})
	a := MustSolveBoundary(n)
	best := math.Inf(1)
	const steps = 400
	for i := 0; i <= steps; i++ {
		for j := 0; i+j <= steps; j++ {
			alpha := []float64{float64(i) / steps, float64(j) / steps, 1 - float64(i+j)/steps}
			if mk := Makespan(n, alpha); mk < best {
				best = mk
			}
		}
	}
	if a.Makespan() > best+tol {
		t.Fatalf("solver makespan %v worse than grid optimum %v", a.Makespan(), best)
	}
	if best-a.Makespan() > 2.0/steps {
		t.Fatalf("solver %v suspiciously far below grid optimum %v", a.Makespan(), best)
	}
}

func TestSolveDominatesPerturbations(t *testing.T) {
	t.Parallel()
	// Local optimality: moving load between any pair of processors cannot
	// reduce the makespan.
	r := xrand.New(5)
	n := randomChain(r, 6)
	a := MustSolveBoundary(n)
	base := Makespan(n, a.Alpha)
	const eps = 1e-4
	for i := 0; i <= n.M(); i++ {
		for j := 0; j <= n.M(); j++ {
			if i == j || a.Alpha[i] < eps {
				continue
			}
			alpha := append([]float64(nil), a.Alpha...)
			alpha[i] -= eps
			alpha[j] += eps
			if Makespan(n, alpha) < base-tol {
				t.Fatalf("perturbation %d->%d improves makespan", i, j)
			}
		}
	}
}

func TestMoreProcessorsNeverHurt(t *testing.T) {
	t.Parallel()
	r := xrand.New(6)
	n := randomChain(r, 16)
	prev := math.Inf(1)
	for k := 0; k <= n.M(); k++ {
		prefix := &Network{W: n.W[:k+1], Z: n.Z[:k+1]}
		mk := MustSolveBoundary(prefix).Makespan()
		if mk > prev+tol {
			t.Fatalf("extending chain to %d processors increased makespan %v -> %v", k+1, prev, mk)
		}
		prev = mk
	}
}

func TestEquivTwoIdentity(t *testing.T) {
	t.Parallel()
	// (2.7): α̂·wPred == (1-α̂)(z+wSucc), and w̄ = α̂·wPred.
	hat, weq := EquivTwo(2, 0.5, 3)
	if math.Abs(hat*2-(1-hat)*(0.5+3)) > tol {
		t.Fatalf("equal-finish identity violated: hat=%v", hat)
	}
	if math.Abs(weq-hat*2) > tol {
		t.Fatalf("w̄ = %v, want %v", weq, hat*2)
	}
}

func TestRealizedEquivTwo(t *testing.T) {
	t.Parallel()
	hat, weq := EquivTwo(2, 0.5, 3)
	// Honest successor: realized equals planned.
	if got := RealizedEquivTwo(hat, 2, 0.5, 3); math.Abs(got-weq) > tol {
		t.Fatalf("honest realized %v, want %v", got, weq)
	}
	// Slower successor: realized is dominated by the successor side.
	slow := RealizedEquivTwo(hat, 2, 0.5, 6)
	if slow <= weq {
		t.Fatalf("slow successor must raise equivalent time: %v <= %v", slow, weq)
	}
	// Faster successor cannot improve the realized time (split is fixed).
	fast := RealizedEquivTwo(hat, 2, 0.5, 1)
	if math.Abs(fast-weq) > tol {
		t.Fatalf("fast successor should leave the predecessor side binding: %v vs %v", fast, weq)
	}
}

func TestAlphaHatRoundTrip(t *testing.T) {
	t.Parallel()
	r := xrand.New(7)
	n := randomChain(r, 9)
	a := MustSolveBoundary(n)
	back := AlphaFromHat(a.AlphaHat)
	for i := range back {
		if math.Abs(back[i]-a.Alpha[i]) > tol {
			t.Fatalf("AlphaFromHat mismatch at %d: %v vs %v", i, back[i], a.Alpha[i])
		}
	}
	hat := HatFromAlpha(a.Alpha)
	for i := range hat {
		if math.Abs(hat[i]-a.AlphaHat[i]) > 1e-7 {
			t.Fatalf("HatFromAlpha mismatch at %d: %v vs %v", i, hat[i], a.AlphaHat[i])
		}
	}
}

func TestReceivedLoadsMatchSolver(t *testing.T) {
	t.Parallel()
	r := xrand.New(8)
	n := randomChain(r, 11)
	a := MustSolveBoundary(n)
	d := ReceivedLoads(a.Alpha)
	for i := range d {
		if math.Abs(d[i]-a.D[i]) > tol {
			t.Fatalf("D[%d] = %v, solver %v", i, d[i], a.D[i])
		}
	}
	if a.D[0] != 1 {
		t.Fatalf("D_0 = %v, want 1", a.D[0])
	}
}

func TestValidateAllocationErrors(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{1, 1}, []float64{0.1})
	if err := ValidateAllocation(n, []float64{1}, tol); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := ValidateAllocation(n, []float64{0.7, 0.7}, tol); err == nil {
		t.Fatal("sum > 1 accepted")
	}
	if err := ValidateAllocation(n, []float64{1.5, -0.5}, tol); err == nil {
		t.Fatal("out-of-range fractions accepted")
	}
	if err := ValidateAllocation(n, []float64{0.4, 0.6}, tol); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}
}

func TestZeroLinkCostChain(t *testing.T) {
	t.Parallel()
	// With free links the chain degenerates to processors in parallel:
	// equal finish means α_i ∝ 1/w_i and makespan = 1/Σ(1/w_i).
	n, _ := NewNetwork([]float64{1, 2, 4}, []float64{0, 0})
	a := MustSolveBoundary(n)
	wantMk := 1 / (1.0/1 + 1.0/2 + 1.0/4)
	if math.Abs(a.Makespan()-wantMk) > tol {
		t.Fatalf("makespan %v, want %v", a.Makespan(), wantMk)
	}
}

func TestExpensiveLinksStarveTail(t *testing.T) {
	t.Parallel()
	// When links are far more expensive than computing, nearly all load
	// stays at the root.
	n, _ := NewNetwork([]float64{1, 1}, []float64{1000})
	a := MustSolveBoundary(n)
	if a.Alpha[0] < 0.99 {
		t.Fatalf("root share %v, want ~1 with prohibitive link", a.Alpha[0])
	}
}

// Property: for random chains, the solved allocation is feasible, every
// processor participates, and finish times are equal within tolerance.
func TestQuickSolveInvariants(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, mRaw uint8) bool {
		m := int(mRaw%32) + 1
		r := xrand.New(seed)
		n := randomChain(r, m)
		a, err := SolveBoundary(n)
		if err != nil {
			return false
		}
		if ValidateAllocation(n, a.Alpha, tol) != nil {
			return false
		}
		for _, ai := range a.Alpha {
			if ai <= 0 {
				return false
			}
		}
		return FinishSpread(n, a.Alpha) <= 1e-7*a.Makespan()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the optimum is never worse than any baseline.
func TestQuickOptimalBeatsBaselines(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, mRaw uint8) bool {
		m := int(mRaw%24) + 1
		r := xrand.New(seed)
		n := randomChain(r, m)
		opt := Makespan(n, MustSolveBoundary(n).Alpha)
		for _, alpha := range [][]float64{
			UniformAlloc(n), ProportionalAlloc(n), CommAwareProportionalAlloc(n), RootOnlyAlloc(n),
		} {
			if Makespan(n, alpha) < opt-tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveBoundaryIntoMatchesSolveBoundary checks the Into variant against
// the allocating path on fresh and reused (including oversized) scratch.
func TestSolveBoundaryIntoMatchesSolveBoundary(t *testing.T) {
	scratch := &Allocation{}
	for _, m := range []int{0, 1, 2, 5, 17, 64, 9} { // shrink at the end: reuse oversized slices
		w := make([]float64, m+1)
		z := make([]float64, m)
		for i := range w {
			w[i] = 0.5 + float64(i%7)*0.3
		}
		for i := range z {
			z[i] = 0.05 + float64(i%3)*0.1
		}
		n, err := NewNetwork(w, z)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveBoundary(n)
		if err != nil {
			t.Fatal(err)
		}
		SolveBoundaryInto(n, scratch)
		for i := 0; i <= m; i++ {
			if scratch.Alpha[i] != want.Alpha[i] || scratch.AlphaHat[i] != want.AlphaHat[i] ||
				scratch.D[i] != want.D[i] || scratch.WBar[i] != want.WBar[i] {
				t.Fatalf("m=%d: Into diverges from SolveBoundary at %d", m, i)
			}
		}
		if len(scratch.Alpha) != m+1 {
			t.Fatalf("m=%d: scratch length %d", m, len(scratch.Alpha))
		}
	}
}

// TestSolveBoundaryIntoZeroAlloc pins the hot-path contract: steady-state
// re-solves into the same scratch allocate nothing.
func TestSolveBoundaryIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the allocation contract")
	}
	w := []float64{1, 2, 1.5, 3, 0.7}
	z := []float64{0.1, 0.2, 0.1, 0.3}
	n, err := NewNetwork(w, z)
	if err != nil {
		t.Fatal(err)
	}
	scratch := &Allocation{}
	SolveBoundaryInto(n, scratch) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		SolveBoundaryInto(n, scratch)
	})
	if allocs != 0 {
		t.Fatalf("SolveBoundaryInto allocates %v per run, want 0", allocs)
	}
}

// TestBoundaryMakespanMatchesInto checks the O(1)-memory makespan sweep
// against the materializing solve across sizes: the backward sweeps perform
// the same operations in the same order, so the makespans are bit-identical.
func TestBoundaryMakespanMatchesInto(t *testing.T) {
	r := xrand.New(7)
	var a Allocation
	for _, m := range []int{0, 1, 2, 3, 5, 8, 17, 64, 512, 4096, 9} { // shrink at the end: reuse oversized slices
		n := randomChain(r, m)
		SolveBoundaryInto(n, &a)
		if got := BoundaryMakespan(n); got != a.WBar[0] {
			t.Fatalf("m=%d: BoundaryMakespan %v, want %v", m, got, a.WBar[0])
		}
	}
}

// TestSolveBoundaryAllocPinsAt65536 pins the growFloats growth paths at a
// large m: warm re-solves must stay allocation-free, so a regression in the
// scratch-reuse discipline cannot hide behind small-m pins.
func TestSolveBoundaryAllocPinsAt65536(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the allocation contract")
	}
	const m = 65536
	n := randomChain(xrand.New(3), m)

	var a Allocation
	SolveBoundaryInto(n, &a) // warm
	if allocs := testing.AllocsPerRun(5, func() { SolveBoundaryInto(n, &a) }); allocs != 0 {
		t.Fatalf("SolveBoundaryInto allocates %v per run at m=%d, want 0", allocs, m)
	}
	var sink float64
	if allocs := testing.AllocsPerRun(5, func() { sink += BoundaryMakespan(n) }); allocs != 0 {
		t.Fatalf("BoundaryMakespan allocates %v per run at m=%d, want 0", allocs, m)
	}
	_ = sink
}
