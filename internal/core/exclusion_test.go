package core

import (
	"math"
	"testing"

	"dlsmech/internal/dlt"
	"dlsmech/internal/xrand"
)

func TestEvaluateExcludingMatchesSplicedTruthful(t *testing.T) {
	t.Parallel()
	n, err := dlt.NewNetwork(
		[]float64{1, 2, 1.5, 3, 2.5},
		[]float64{0.2, 0.1, 0.3, 0.15},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	ex, err := EvaluateExcluding(n, []int{2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spliced, err := n.Without(2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateTruthful(spliced, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSurv := []int{0, 1, 3, 4}
	for i, s := range wantSurv {
		if ex.Survivors[i] != s {
			t.Fatalf("survivors %v, want %v", ex.Survivors, wantSurv)
		}
		if ex.Alpha[s] != want.Plan.Alpha[i] {
			t.Fatalf("alpha[%d] = %v, want spliced position %d's %v", s, ex.Alpha[s], i, want.Plan.Alpha[i])
		}
		if ex.Utilities[s] != want.Payments[i].Utility {
			t.Fatalf("utility[%d] = %v, want %v", s, ex.Utilities[s], want.Payments[i].Utility)
		}
	}
	if ex.Alpha[2] != 0 || ex.Utilities[2] != 0 {
		t.Fatalf("excluded position carries alpha=%v utility=%v, want zeros", ex.Alpha[2], ex.Utilities[2])
	}
}

// The theorems keep holding on the surviving chain: Σα = 1, equal finish
// times, truthful participation — across random networks and random
// exclusion sets.
func TestEvaluateExcludingPreservesTheorems(t *testing.T) {
	t.Parallel()
	r := xrand.New(0xdead)
	cfg := DefaultConfig()
	for k := 0; k < 200; k++ {
		n, err := randomInstance(r)
		if err != nil {
			t.Fatalf("instance %d rejected: %v", k, err)
		}
		// Exclude 1..M-1 distinct non-root processors.
		nDead := 1 + r.Intn(n.M()-1)
		perm := make([]int, n.M()) // a uniform permutation of [0, M), inside-out
		for i := range perm {
			j := r.Intn(i + 1)
			perm[i], perm[j] = perm[j], i
		}
		dead := make([]int, 0, nDead)
		for _, p := range perm[:nDead] {
			dead = append(dead, p+1)
		}
		ex, err := EvaluateExcluding(n, dead, cfg)
		if err != nil {
			t.Fatalf("instance %d (dead %v): %v", k, dead, err)
		}
		var sum float64
		for _, a := range ex.Alpha {
			sum += a
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("instance %d: Σα = %v after excluding %v", k, sum, dead)
		}
		if spread := dlt.FinishSpread(ex.Net, ex.Outcome.Plan.Alpha); spread > 1e-9 {
			t.Fatalf("instance %d: finish spread %v on surviving chain", k, spread)
		}
		for _, s := range ex.Survivors {
			if ex.Utilities[s] < -1e-9 {
				t.Fatalf("instance %d: survivor P%d utility %v < 0", k, s, ex.Utilities[s])
			}
		}
		for _, d := range dead {
			if ex.Alpha[d] != 0 || ex.Utilities[d] != 0 {
				t.Fatalf("instance %d: excluded P%d got alpha=%v utility=%v", k, d, ex.Alpha[d], ex.Utilities[d])
			}
		}
	}
}

func TestEvaluateExcludingRejectsRootAndFullChain(t *testing.T) {
	t.Parallel()
	n, err := dlt.NewNetwork([]float64{1, 2}, []float64{0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateExcluding(n, []int{0}, DefaultConfig()); err == nil {
		t.Fatal("root exclusion accepted")
	}
	if _, err := EvaluateExcluding(n, []int{5}, DefaultConfig()); err == nil {
		t.Fatal("out-of-range exclusion accepted")
	}
}
