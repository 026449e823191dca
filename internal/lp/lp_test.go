package lp

import (
	"errors"
	"math"
	"testing"

	"dlsmech/internal/dlt"
	"dlsmech/internal/xrand"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

func TestSolveTextbook(t *testing.T) {
	// max 3x+5y s.t. x≤4, 2y≤12, 3x+2y≤18 (classic Dantzig example)
	// ⇔ min −3x−5y; optimum (2,6), objective −36.
	sol, err := Solve(Problem{
		C: []float64{-3, -5},
		A: [][]float64{{1, 0}, {0, 2}, {3, 2}},
		B: []float64{4, 12, 18},
	})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, sol.Obj, -36, 1e-9, "objective")
	almost(t, sol.X[0], 2, 1e-9, "x")
	almost(t, sol.X[1], 6, 1e-9, "y")
}

func TestSolveEqualityOnly(t *testing.T) {
	// min x+2y s.t. x+y = 3, x,y ≥ 0 → (3,0), obj 3.
	sol, err := Solve(Problem{
		C: []float64{1, 2},
		E: [][]float64{{1, 1}},
		F: []float64{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, sol.Obj, 3, 1e-9, "objective")
	almost(t, sol.X[0], 3, 1e-9, "x")
}

func TestSolveNegativeRHS(t *testing.T) {
	// min x s.t. −x ≤ −2 (i.e. x ≥ 2) → 2.
	sol, err := Solve(Problem{
		C: []float64{1},
		A: [][]float64{{-1}},
		B: []float64{-2},
	})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, sol.Obj, 2, 1e-9, "objective")
}

func TestSolveInfeasible(t *testing.T) {
	// x ≤ 1 and x ≥ 2.
	_, err := Solve(Problem{
		C: []float64{1},
		A: [][]float64{{1}, {-1}},
		B: []float64{1, -2},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// min −x, x ≥ 0 unconstrained above.
	_, err := Solve(Problem{C: []float64{-1}})
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("want ErrUnbounded, got %v", err)
	}
}

func TestSolveBadShapes(t *testing.T) {
	if _, err := Solve(Problem{}); !errors.Is(err, ErrBadShape) {
		t.Fatal("empty problem accepted")
	}
	if _, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}); !errors.Is(err, ErrBadShape) {
		t.Fatal("ragged A accepted")
	}
	if _, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{}}); !errors.Is(err, ErrBadShape) {
		t.Fatal("rhs mismatch accepted")
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A degenerate vertex (redundant constraints); Bland's rule must
	// terminate. min −x−y s.t. x ≤ 1, y ≤ 1, x+y ≤ 2 (redundant).
	sol, err := Solve(Problem{
		C: []float64{-1, -1},
		A: [][]float64{{1, 0}, {0, 1}, {1, 1}},
		B: []float64{1, 1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, sol.Obj, -2, 1e-9, "objective")
}

func randomChain(r *xrand.Rand, m int) *dlt.Network {
	w := make([]float64, m+1)
	z := make([]float64, m)
	for i := range w {
		w[i] = r.Uniform(0.5, 5)
	}
	for i := range z {
		z[i] = r.Uniform(0.05, 1)
	}
	n, err := dlt.NewNetwork(w, z)
	if err != nil {
		panic(err)
	}
	return n
}

func TestScheduleLPMatchesAlgorithm1(t *testing.T) {
	// The independent optimality oracle: the simplex optimum of the
	// makespan LP must equal Algorithm 1's closed form.
	r := xrand.New(1)
	for trial := 0; trial < 25; trial++ {
		n := randomChain(r, 1+r.Intn(12))
		want := dlt.MustSolveBoundary(n).Makespan()
		got, err := ScheduleLPMakespan(n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-7*want {
			t.Fatalf("trial %d (%v): LP %v vs Algorithm 1 %v", trial, n, got, want)
		}
	}
}

func TestScheduleLPAllocationMatches(t *testing.T) {
	r := xrand.New(2)
	n := randomChain(r, 6)
	sol, err := ScheduleLP(n)
	if err != nil {
		t.Fatal(err)
	}
	want := dlt.MustSolveBoundary(n)
	for i := 0; i <= n.M(); i++ {
		if math.Abs(sol.X[i]-want.Alpha[i]) > 1e-6 {
			t.Fatalf("α_%d: LP %v vs Algorithm 1 %v", i, sol.X[i], want.Alpha[i])
		}
	}
}

func TestScheduleLPSingleProcessor(t *testing.T) {
	n, _ := dlt.NewNetwork([]float64{2.5}, nil)
	got, err := ScheduleLPMakespan(n)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, got, 2.5, 1e-9, "single-processor LP")
}

func TestScheduleLPRejectsInvalid(t *testing.T) {
	bad := &dlt.Network{W: []float64{-1}, Z: []float64{0}}
	if _, err := ScheduleLP(bad); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestScheduleLPLargeChainsNeverSilentlyWrong(t *testing.T) {
	// On dense ~100-column tableaus accumulated pivot round-off can corrupt
	// the basis; the solver must then return ErrNumeric, never a "solution"
	// that violates the original constraints. (A corrupted basis once
	// reported makespan 0 with Σα ≈ 3.5e6 at m=64.)
	r := xrand.New(7)
	for _, m := range []int{32, 64, 96, 128} {
		for trial := 0; trial < 3; trial++ {
			n := randomChain(r, m)
			want := dlt.MustSolveBoundary(n).Makespan()
			got, err := ScheduleLPMakespan(n)
			if err != nil {
				if !errors.Is(err, ErrNumeric) {
					t.Fatalf("m=%d trial %d: %v", m, trial, err)
				}
				continue // loud failure is acceptable; silence is not
			}
			if math.Abs(got-want) > 1e-7*want {
				t.Fatalf("m=%d trial %d: LP %v vs Algorithm 1 %v", m, trial, got, want)
			}
		}
	}
}
