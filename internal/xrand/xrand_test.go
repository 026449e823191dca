package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 60 {
		t.Fatalf("zero seed generator looks degenerate: %d distinct of 64", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from expected %v", i, c, want)
		}
	}
}

func TestUniform(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	r := New(9)
	if v := r.Uniform(3, 3); v != 3 {
		t.Fatalf("Uniform(3,3) = %v, want 3", v)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(13)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency %v", p)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm variance %v", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(29)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(2)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean %v, want 0.5", mean)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Exp(0)")
		}
	}()
	New(1).Exp(0)
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(37)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: %v", xs)
	}
}

func TestChoiceRespectsZeroWeights(t *testing.T) {
	r := New(41)
	w := []float64{0, 1, 0, 2}
	for i := 0; i < 10000; i++ {
		c := r.Choice(w)
		if c == 0 || c == 2 {
			t.Fatalf("Choice selected zero-weight index %d", c)
		}
	}
}

func TestChoiceProportions(t *testing.T) {
	r := New(43)
	w := []float64{1, 3}
	counts := [2]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Choice(w)]++
	}
	p := float64(counts[1]) / n
	if math.Abs(p-0.75) > 0.01 {
		t.Fatalf("Choice proportion %v, want 0.75", p)
	}
}

func TestChoicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for all-zero weights")
		}
	}()
	New(1).Choice([]float64{0, 0})
}

func TestSplitIndependence(t *testing.T) {
	parent := New(47)
	child := parent.Split()
	// The child stream must differ from the parent's subsequent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and child share %d of 100 outputs", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(51).Split()
	b := New(51).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

// Property: Intn never escapes its bound, for arbitrary seeds and bounds.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds give identical Float64 streams.
func TestQuickDeterministicFloats(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Float64() != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Float64()
	}
	_ = sink
}

func TestStreamsDeterministicAndIndependent(t *testing.T) {
	a := New(99).Streams(8)
	b := New(99).Streams(8)
	for i := range a {
		for k := 0; k < 16; k++ {
			if a[i].Uint64() != b[i].Uint64() {
				t.Fatalf("stream %d not reproducible", i)
			}
		}
	}
	// Distinct streams must not collide on their openings.
	seen := map[uint64]int{}
	for i, s := range New(7).Streams(64) {
		v := s.Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d open with the same value", j, i)
		}
		seen[v] = i
	}
}

func TestStreamsAdvanceParent(t *testing.T) {
	r1, r2 := New(5), New(5)
	r1.Streams(3)
	for i := 0; i < 3; i++ {
		r2.Split()
	}
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("Streams(n) must advance the parent exactly like n Splits")
	}
}
