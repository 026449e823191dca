package dlt

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

func TestNewNetworkValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		w, z []float64
		err  error
	}{
		{"empty", nil, nil, ErrEmpty},
		{"length mismatch", []float64{1, 2}, []float64{0.1, 0.2}, ErrLengths},
		{"zero w", []float64{0, 1}, []float64{0.1}, ErrNonPositiveW},
		{"negative w", []float64{-1}, nil, ErrNonPositiveW},
		{"nan w", []float64{math.NaN()}, nil, ErrNonPositiveW},
		{"inf w", []float64{math.Inf(1)}, nil, ErrNonPositiveW},
		{"negative z", []float64{1, 1}, []float64{-0.1}, ErrNegativeZ},
		{"nan z", []float64{1, 1}, []float64{math.NaN()}, ErrNegativeZ},
		{"ok", []float64{1, 2}, []float64{0.5}, nil},
		{"ok zero link", []float64{1, 2}, []float64{0}, nil},
	}
	for _, c := range cases {
		_, err := NewNetwork(c.w, c.z)
		if c.err == nil && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if c.err != nil && !errors.Is(err, c.err) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.err)
		}
	}
}

func TestValidateZ0(t *testing.T) {
	t.Parallel()
	n := &Network{W: []float64{1, 2}, Z: []float64{0.5, 0.5}}
	if err := n.Validate(); !errors.Is(err, ErrZ0) {
		t.Fatalf("want ErrZ0, got %v", err)
	}
}

func TestMAndSize(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{1, 2, 3}, []float64{0.1, 0.2})
	if n.M() != 2 || n.Size() != 3 {
		t.Fatalf("M=%d Size=%d", n.M(), n.Size())
	}
}

func TestCloneIsolated(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{1, 2}, []float64{0.5})
	c := n.Clone()
	c.W[0] = 99
	c.Z[1] = 99
	if n.W[0] == 99 || n.Z[1] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestSuffix(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{1, 2, 3, 4}, []float64{0.1, 0.2, 0.3})
	s := n.Suffix(2)
	if s.Size() != 2 || s.W[0] != 3 || s.W[1] != 4 {
		t.Fatalf("Suffix(2) = %+v", s)
	}
	if s.Z[0] != 0 || s.Z[1] != 0.3 {
		t.Fatalf("Suffix links wrong: %v", s.Z)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Full suffix is a copy of the network itself.
	if f := n.Suffix(0); f.Size() != 4 || f.W[3] != 4 {
		t.Fatalf("Suffix(0) = %+v", f)
	}
}

func TestSuffixPanics(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{1}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Suffix(5)
}

func TestWithBid(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{1, 2}, []float64{0.5})
	b := n.WithBid(1, 7)
	if b.W[1] != 7 || n.W[1] != 2 {
		t.Fatalf("WithBid wrong: %v / %v", b.W, n.W)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{1, 2, 3}, []float64{0.25, 0.5})
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Size() != 3 || back.Z[2] != 0.5 || back.Z[0] != 0 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	t.Parallel()
	var n Network
	if err := json.Unmarshal([]byte(`{"w":[1,-2],"z":[0.1]}`), &n); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if err := json.Unmarshal([]byte(`{"w":[1,2],"z":[0.1,0.2]}`), &n); err == nil {
		t.Fatal("mismatched link count accepted")
	}
}

func TestFinishTimeZeroAlloc(t *testing.T) {
	t.Parallel()
	// (2.2): T_j = 0 when α_j = 0 for j ≥ 1 — the processor never takes
	// part and is not charged the communication prefix.
	n, _ := NewNetwork([]float64{1, 1, 1}, []float64{0.5, 0.5})
	alpha := []float64{0.6, 0.4, 0}
	ts := FinishTimes(n, alpha)
	if ts[2] != 0 {
		t.Fatalf("T_2 = %v, want 0", ts[2])
	}
	if got := FinishTime(n, alpha, 2); got != 0 {
		t.Fatalf("FinishTime = %v, want 0", got)
	}
}

func TestFinishTimeMatchesScalar(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{1.2, 2.3, 0.9, 3.1}, []float64{0.2, 0.4, 0.1})
	alpha := []float64{0.4, 0.3, 0.2, 0.1}
	ts := FinishTimes(n, alpha)
	for j := range ts {
		if got := FinishTime(n, alpha, j); math.Abs(got-ts[j]) > tol {
			t.Fatalf("FinishTime(%d) = %v, FinishTimes -> %v", j, got, ts[j])
		}
	}
}

func TestFinishTimeHandComputed(t *testing.T) {
	t.Parallel()
	// Hand-check (2.2) for a 3-processor chain.
	n, _ := NewNetwork([]float64{2, 3, 4}, []float64{0.5, 1.0})
	alpha := []float64{0.5, 0.3, 0.2}
	// T_0 = 0.5*2 = 1
	// T_1 = (1-0.5)*0.5 + 0.3*3 = 0.25 + 0.9 = 1.15
	// T_2 = (1-0.5)*0.5 + (1-0.8)*1.0 + 0.2*4 = 0.25+0.2+0.8 = 1.25
	ts := FinishTimes(n, alpha)
	want := []float64{1, 1.15, 1.25}
	for i := range want {
		if math.Abs(ts[i]-want[i]) > tol {
			t.Fatalf("T_%d = %v, want %v", i, ts[i], want[i])
		}
	}
	if mk := Makespan(n, alpha); math.Abs(mk-1.25) > tol {
		t.Fatalf("makespan %v", mk)
	}
}

func TestArrivalTimes(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{2, 3, 4}, []float64{0.5, 1.0})
	alpha := []float64{0.5, 0.3, 0.2}
	at := ArrivalTimes(n, alpha)
	want := []float64{0, 0.25, 0.45}
	for i := range want {
		if math.Abs(at[i]-want[i]) > tol {
			t.Fatalf("arrival %d = %v, want %v", i, at[i], want[i])
		}
	}
}

func TestFinishSpreadIgnoresIdle(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{1, 1, 1}, []float64{0.5, 0.5})
	alpha := []float64{0.6, 0.4, 0}
	ts := FinishTimes(n, alpha)
	want := math.Abs(ts[0] - ts[1])
	if got := FinishSpread(n, alpha); math.Abs(got-want) > tol {
		t.Fatalf("spread %v, want %v (idle processor must be ignored)", got, want)
	}
}

func TestBaselinesAreFeasible(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{1, 2, 3, 4}, []float64{0.1, 0.2, 0.3})
	for name, alpha := range map[string][]float64{
		"uniform":      UniformAlloc(n),
		"proportional": ProportionalAlloc(n),
		"commaware":    CommAwareProportionalAlloc(n),
		"rootonly":     RootOnlyAlloc(n),
	} {
		if err := ValidateAllocation(n, alpha, tol); err != nil {
			t.Fatalf("%s infeasible: %v", name, err)
		}
	}
}

func TestProportionalWeighting(t *testing.T) {
	t.Parallel()
	n, _ := NewNetwork([]float64{1, 2}, []float64{0.5})
	alpha := ProportionalAlloc(n)
	// 1/w weights: 1 and 0.5 -> shares 2/3 and 1/3.
	if math.Abs(alpha[0]-2.0/3) > tol || math.Abs(alpha[1]-1.0/3) > tol {
		t.Fatalf("proportional = %v", alpha)
	}
}
