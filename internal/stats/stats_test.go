package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dlsmech/internal/xrand"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

func TestMeanBasics(t *testing.T) {
	almost(t, Mean([]float64{1, 2, 3, 4}), 2.5, 1e-15, "Mean")
	almost(t, Mean(nil), 0, 0, "Mean(nil)")
	almost(t, Mean([]float64{-5}), -5, 0, "Mean single")
}

func TestSumCompensated(t *testing.T) {
	// 1 + 1e-16 repeated: naive summation loses the small terms.
	xs := make([]float64, 0, 1_000_001)
	xs = append(xs, 1)
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, 1e-16)
	}
	got := Sum(xs)
	want := 1 + 1e-10
	if math.Abs(got-want) > 1e-13 {
		t.Fatalf("compensated Sum = %.18f, want %.18f", got, want)
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	almost(t, Variance(xs), 32.0/7.0, 1e-12, "Variance")
	almost(t, Std(xs), math.Sqrt(32.0/7.0), 1e-12, "Std")
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance([]float64{3}) != 0 || Variance(nil) != 0 {
		t.Fatal("variance of <2 samples must be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Fatalf("Min = %v, %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Fatalf("Max = %v, %v", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatal("Min(nil) should err")
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatal("Max(nil) should err")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	med, _ := Quantile(xs, 0.5)
	almost(t, q0, 1, 0, "q0")
	almost(t, q1, 4, 0, "q1")
	almost(t, med, 2.5, 1e-15, "median")
	q25, _ := Quantile(xs, 0.25)
	almost(t, q25, 1.75, 1e-15, "q25 (type-7)")
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("expected error on empty")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Fatal("expected error on q<0")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Fatal("expected error on q>1")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	_, _ = Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestRelErr(t *testing.T) {
	almost(t, RelErr(1.1, 1.0, 1e-12), 0.1, 1e-12, "RelErr")
	// Floor kicks in when want == 0.
	almost(t, RelErr(0.5, 0, 1), 0.5, 1e-15, "RelErr floored")
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 5, 3, 5}) != 1 {
		t.Fatal("ArgMax should return first maximum")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("ArgMax(nil) should be -1")
	}
}

func TestMonotone(t *testing.T) {
	if !Monotone([]float64{1, 2, 2, 3}, 1, 0) {
		t.Fatal("non-decreasing series rejected")
	}
	if Monotone([]float64{1, 2, 1.5}, 1, 0.1) {
		t.Fatal("violation larger than tol accepted")
	}
	if !Monotone([]float64{1, 2, 1.9999}, 1, 0.01) {
		t.Fatal("violation within tol rejected")
	}
	if !Monotone([]float64{3, 2, 1}, -1, 0) {
		t.Fatal("non-increasing series rejected")
	}
}

func TestMonotonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dir=0")
		}
	}()
	Monotone([]float64{1}, 0, 0)
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		almost(t, xs[i], want[i], 1e-15, "Linspace elem")
	}
}

// Property: the sample mean of any finite float slice lies in [min, max].
func TestQuickMeanWithinRange(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		m := Mean(xs)
		return m >= mn-1e-6*math.Abs(mn)-1e-300 && m <= mx+1e-6*math.Abs(mx)+1e-300
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile agrees with sorted order statistics at the grid points
// k/(n-1).
func TestQuickQuantileGrid(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%32) + 2
		r := xrand.New(seed)
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = r.Uniform(-10, 10)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for k := 0; k < size; k++ {
			q, err := Quantile(xs, float64(k)/float64(size-1))
			if err != nil {
				return false
			}
			if math.Abs(q-sorted[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is never negative.
func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n % 64)
		r := xrand.New(seed)
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = r.Uniform(-1e6, 1e6)
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
