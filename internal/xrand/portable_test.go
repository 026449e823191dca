package xrand

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// portableInputs sweeps exp's and log's domains: the log-normal draws the
// workload generator makes, a wide uniform band down into the subnormals,
// and the special values.
func portableInputs() []float64 {
	r := New(20261020)
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 709.78, 709.79, -708.4, -720, -745.1, -745.2,
		-1000, 1e-300, 5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 100000; i++ {
		xs = append(xs, float64(0.8*r.Norm()), r.Uniform(-745, 710), r.Float64())
	}
	return xs
}

// TestPortableExpLogGolden pins exp and log to bits computed on amd64,
// where they equal math.Exp (FMA path) and math.Log. Any architecture must
// reproduce the digest.
func TestPortableExpLogGolden(t *testing.T) {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, x := range portableInputs() {
		put(exp(x))
		put(log(x))
	}
	const want = 0x644fb8151037f90e
	if got := h.Sum64(); got != want {
		t.Fatalf("exp/log digest %#x, want %#x", got, want)
	}
}

// TestPortableExpLogAccuracy checks exp and log against the standard
// library's: equal on amd64 for log, within one ulp everywhere. Logs of
// subnormals are left out: amd64's math.Log gets them wrong (it gives
// -709.09 for 5e-324, whose log is -744.44), and no draw produces one.
func TestPortableExpLogAccuracy(t *testing.T) {
	for _, x := range portableInputs() {
		cases := []struct {
			name      string
			got, want float64
		}{{"exp", exp(x), math.Exp(x)}, {"log", log(x), math.Log(x)}}
		if x > 0 && x < 0x1p-1022 {
			cases = cases[:1]
		}
		for _, c := range cases {
			if math.IsNaN(c.want) {
				if !math.IsNaN(c.got) {
					t.Fatalf("%s(%v) = %v, want NaN", c.name, x, c.got)
				}
				continue
			}
			if c.name == "log" && runtime.GOARCH == "amd64" && c.got != c.want {
				t.Fatalf("log(%v) = %v, math.Log %v", x, c.got, c.want)
			}
			if c.got != c.want && math.Abs(c.got-c.want) > math.Abs(math.Nextafter(c.want, 0)-c.want) {
				t.Fatalf("%s(%v) = %v, math %v: more than one ulp apart", c.name, x, c.got, c.want)
			}
		}
	}
}
