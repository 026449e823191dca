// Package stats provides the small set of summary statistics the experiment
// harness needs: means, deviations, quantiles, confidence intervals and
// series utilities such as crossover detection. It is intentionally minimal
// and allocation-conscious; the experiment runners call these helpers inside
// tight sweeps.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the Kahan-compensated sum of xs. Compensated summation keeps
// long experiment sweeps (10^6+ terms) accurate to the last few ulps.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Variance returns the unbiased sample variance (n-1 denominator) using
// Welford's online algorithm. Returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mean, m2 float64
	for i, x := range xs {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	return m2 / float64(len(xs)-1)
}

// Std returns the sample standard deviation.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or an error for an empty slice.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs, or an error for an empty slice.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default). The input
// is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the median of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// RelErr returns |got-want| / max(|want|, floor). The floor prevents division
// blow-ups when the reference value is (near) zero.
func RelErr(got, want, floor float64) float64 {
	denom := math.Abs(want)
	if denom < floor {
		denom = floor
	}
	return math.Abs(got-want) / denom
}

// ArgMax returns the index of the maximum element of xs (first occurrence),
// or -1 for an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Monotone reports whether xs is non-decreasing (dir > 0) or non-increasing
// (dir < 0) within tolerance tol: adjacent violations smaller than tol are
// ignored. dir == 0 panics.
func Monotone(xs []float64, dir int, tol float64) bool {
	if dir == 0 {
		panic("stats: Monotone with dir == 0")
	}
	for i := 1; i < len(xs); i++ {
		d := xs[i] - xs[i-1]
		if dir > 0 && d < -tol {
			return false
		}
		if dir < 0 && d > tol {
			return false
		}
	}
	return true
}

// Linspace returns n evenly spaced values from lo to hi inclusive. n must be
// at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("stats: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // avoid accumulated rounding at the endpoint
	return out
}
