package main

import (
	"math"
	"sort"
	"time"

	"dlsmech/internal/xrand"
)

// quantile returns the exact q-quantile (0 ≤ q ≤ 1) of the raw samples by
// linear interpolation between order statistics. sorted must be ascending.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailLadder is the set of percentiles the tail metric may report. It stops
// at p99: beyond it, a 2-core shared VM's millisecond-scale preemptions are
// all a tail shows.
var tailLadder = []float64{50, 90, 95, 99}

// tailPercentile is the highest percentile on the ladder that leaves at least
// ten of n samples beyond it, so the reported tail always rests on ten
// observations: p99 needs 1,000 samples, p95 200, p90 100. Below 20 samples
// it falls back to the median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// trimFrac is the share of samples trimmed from each end for the trimmed
// mean.
const trimFrac = 0.05

// latencySummary describes one sample set exactly, in the samples' own unit.
type latencySummary struct {
	N       int
	P50     float64
	Mean    float64 // mean of the central 90% (trimFrac cut from each end)
	TailPct float64
	Tail    float64
}

func summarize(samples []float64) latencySummary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p := tailPercentile(len(s))
	return latencySummary{N: len(s), P50: quantile(s, 0.5), Mean: trimmedMean(s, trimFrac), TailPct: p, Tail: quantile(s, p/100)}
}

// trimmedMean averages sorted after dropping the lowest and highest share
// of its samples.
func trimmedMean(sorted []float64, share float64) float64 {
	k := int(share * float64(len(sorted)))
	mid := sorted[k : len(sorted)-k]
	if len(mid) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// quartiles returns the three cut points of values into quarters with the
// "exclusive" method that Python's statistics.quantiles(values, n=4) uses by
// default, including its extrapolation for very small samples, so spreads
// computed here equal spreads computed from the same values by that function.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// poissonSchedule returns n arrival offsets of a Poisson process with the
// given rate (arrivals per second), drawn from r. Equal seeds give equal
// schedules.
func poissonSchedule(r *xrand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += r.Exp(rate)
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openTiming accounts one open-loop request. Latency runs from when the
// request was due, so time spent waiting for a free connection counts
// against the system. Lag is how late the generator itself sent it: the
// send time minus the later of the due time and the moment a connection was
// free to carry it.
func openTiming(due, free, sent, done time.Time) (latency, lag time.Duration) {
	ready := due
	if free.After(ready) {
		ready = free
	}
	return done.Sub(due), sent.Sub(ready)
}
