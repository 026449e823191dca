// Package xrand provides deterministic pseudo-random number generation for
// the dlsmech experiment harness.
//
// Every experiment, test and workload generator in this repository draws its
// randomness from an explicit *xrand.Rand seeded with a fixed value, so runs
// are bit-reproducible across machines and Go releases. The package
// deliberately avoids math/rand: the global source there is shared mutable
// state and its stream is not guaranteed stable across Go versions.
//
// The core generator is xoshiro256** seeded through SplitMix64, the
// construction recommended by Blackman and Vigna. It is small, fast, passes
// BigCrush, and is trivially reproducible from a single uint64 seed.
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; give each goroutine its own Rand (see Split).
type Rand struct {
	s [4]uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output. It is
// used to expand a single seed into the four xoshiro words.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators constructed with
// the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := Seeded(seed)
	return &r
}

// Seeded returns a generator by value, producing exactly New(seed)'s stream.
// It exists for short-lived deterministic draws on hot paths (e.g. one audit
// coin per bill): a value held in a local does not escape to the heap, while
// New's pointer always does.
func Seeded(seed uint64) Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent of r's future
// output. It is used to hand child generators to worker goroutines while the
// parent keeps a deterministic stream of its own.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}

// Streams returns n generators derived from r, one per parallel worker or
// trial. The derivation draws from r in index order, so the returned streams
// — and r's own continuation — are fully determined by r's state at the
// call, regardless of how many goroutines later consume them. This is the
// fan-out primitive behind the parallel experiment engine: derive the
// streams sequentially, hand stream k to trial k, and the trial results are
// identical for every worker count.
func (r *Rand) Streams(n int) []*Rand {
	out := make([]*Rand, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// multiply-shift rejection method (no modulo bias).
func (r *Rand) boundedUint64(bound uint64) uint64 {
	if bound == 0 {
		panic("xrand: zero bound")
	}
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return hi
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	// The division compiles to a multiply; the outer conversion keeps it
	// out of a caller's fused multiply-add (see portable.go).
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Uniform returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *Rand) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("xrand: Uniform with hi < lo")
	}
	return lo + float64((hi-lo)*r.Float64())
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Norm returns a standard normal variate (Marsaglia polar method).
func (r *Rand) Norm() float64 {
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*log(s)/s)
		}
	}
}

// LogNormal returns exp(mu + sigma*Z). Divisible-load papers model machine
// heterogeneity with heavy-tailed positive rates; log-normal is the standard
// choice.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return exp(mu + float64(sigma*r.Norm()))
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	// 1-Float64() is in (0,1], so Log never sees zero.
	return -log(1-r.Float64()) / rate
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a uniform index weighted by the non-negative weights. It
// panics if the weights sum to zero or any weight is negative.
func (r *Rand) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("xrand: weights sum to zero")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
