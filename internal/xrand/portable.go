package xrand

import "math"

// The package's log and exp give the same bits on every architecture. The
// standard library's do not: math.Log is assembly on amd64 but Go code on
// arm64, where the compiler fuses its multiply-adds; math.Exp is assembly
// on both, with different algorithms, and on amd64 it takes an FMA path
// only when the CPU has one. Network generation draws every processor's
// speed through them (LogNormal), so settlement bytes would depend on the
// machine before the first bid.
//
// Every product that feeds an addition is wrapped in float64(...), which
// the Go spec makes round and so keeps the compiler from fusing it. The
// fused steps exp needs are explicit math.FMA calls, which round once on
// every platform, in hardware or not.

// log is the natural logarithm: the algorithm of Go's math/log.go (from
// FreeBSD's e_log.c), unfused. It equals math.Log on amd64 bit for bit.
func log(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 // 3fe62e42 fee00000
		ln2Lo = 1.90821492927058770002e-10 // 3dea39ef 35793c76
		l1    = 6.666666666666735130e-01   // 3FE55555 55555593
		l2    = 3.999999999940941908e-01   // 3FD99999 9997FA04
		l3    = 2.857142874366239149e-01   // 3FD24924 94229359
		l4    = 2.222219843214978396e-01   // 3FCC71C5 1D8E78AF
		l5    = 1.818357216161805012e-01   // 3FC74664 96CB03DE
		l6    = 1.531383769920937332e-01   // 3FC39A09 D078C69F
		l7    = 1.479819860511658591e-01   // 3FC2F112 DF3E5244
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)

	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	r := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}

// exp is e**x: the algorithm of Go's amd64 math.Exp (after Shibata's SLEEF),
// on its FMA path. It equals math.Exp bit for bit on an amd64 CPU with FMA.
func exp(x float64) float64 {
	const (
		ln2U     = 0.69314718055966295651160180568695068359375           // upper half of ln 2
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12 // lower half
		log2e    = 1.4426950408889634073599246810018920
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	kf := math.RoundToEven(float64(x * log2e))
	if kf < -1100 {
		return 0 // below the smallest subnormal
	}
	// Reduce: x = k·ln 2 + 16r.
	r := math.FMA(-ln2U, kf, x)
	r = math.FMA(-ln2L, kf, r)
	r *= 0.0625
	// e**r - 1 by its Taylor series, then squared up four times:
	// (e**r - 1)(e**r + 1) = e**2r - 1.
	p := 2.4801587301587301587e-5
	p = math.FMA(p, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	y := float64(r * p)
	y = float64(y * (y + 2))
	y = float64(y * (y + 2))
	y = float64(y * (y + 2))
	y = math.FMA(y, y+2, 1)
	// Scale by 2**k, in two steps when the result is subnormal.
	e := int(kf) + 0x3FF
	if e <= 0 {
		if e < -52 {
			return 0
		}
		y = float64(y * math.Float64frombits(uint64(e+0x3FE)<<52))
		e = 1
	} else if e >= 0x7FF {
		return math.Inf(1)
	}
	return float64(y * math.Float64frombits(uint64(e)<<52))
}
