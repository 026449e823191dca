package protocol

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// The worker lifecycle tests are sequential: WorkersStarted and
// runtime.NumGoroutine are process-wide, and Go runs no parallel test until
// every sequential one has returned.

// TestSessionReusesParkedWorkers pins the warm path: once a session has run,
// its rounds draw parked workers from the pool and start no goroutine.
func TestSessionReusesParkedWorkers(t *testing.T) {
	_, p := sessionChain(t, 8)
	s := NewSession(9, p.Seed)
	for i := 0; i < 3; i++ {
		if _, err := s.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	// Workers idle in the pool across two GC cycles are dropped by design;
	// keep the collector out of the measured rounds so the count is exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := WorkersStarted()
	for i := 0; i < 200; i++ {
		if _, err := s.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	if started := WorkersStarted() - before; started != 0 {
		t.Fatalf("200 warm rounds started %d workers, want 0", started)
	}
}

// TestIdleWorkersExit pins the cold path: workers left in the pool by
// one-shot Runs, or by a session that sits idle, are dropped by the GC and
// their goroutines exit.
func TestIdleWorkersExit(t *testing.T) {
	base := runtime.NumGoroutine()
	_, p := sessionChain(t, 3)
	// A live session must not hold its last round's workers either.
	s := NewSession(4, p.Seed)
	if _, err := s.Run(p); err != nil {
		t.Fatal(err)
	}
	defer runtime.KeepAlive(s)
	for i := 0; i < 500; i++ {
		if _, err := Run(p); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 500 cold runs and repeated GC, baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParkedWorkersDoNotPinSessions checks that neither side of a finished
// round holds the other: a session dropped after its round is collectable
// while the round's workers are still parked in the pool.
func TestParkedWorkersDoNotPinSessions(t *testing.T) {
	_, p := sessionChain(t, 4)
	s := NewSession(5, p.Seed)
	if _, err := s.Run(p); err != nil {
		t.Fatal(err)
	}
	// The runner sits in a reference cycle (its arbiter points back), which
	// finalizers do not support; watch a leaf it owns instead.
	collected := make(chan struct{})
	runtime.SetFinalizer(s.r.procs[0], func(*procState) { close(collected) })
	s = nil
	runtime.GC() // one cycle: the pool keeps its workers (in its victim cache)
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("the session of a finished round was not collected")
	}
}

// TestConcurrentSessionsShareWorkers runs sessions at once from several
// goroutines, with collections in between so idle workers are stopped
// while others are taken and parked, and checks every round against the
// same round run alone.
func TestConcurrentSessionsShareWorkers(t *testing.T) {
	t.Parallel()
	_, p := sessionChain(t, 6)
	want, err := NewSession(7, p.Seed).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	const sessions, rounds = 4, 25
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		go func() {
			s := NewSession(7, p.Seed)
			for k := 0; k < rounds; k++ {
				got, err := s.Run(p)
				if err == nil && !sameRound(got, want) {
					err = fmt.Errorf("round %d differs from the same round run alone", k)
				}
				if err != nil {
					errs <- err
					return
				}
				if k%5 == 0 {
					runtime.GC()
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < sessions; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// sameRound reports whether two results agree bit for bit on outcome,
// counts, bids, retained loads and utilities.
func sameRound(a, b *Result) bool {
	if a.Completed != b.Completed || a.Stats != b.Stats {
		return false
	}
	for i := range a.Utilities {
		if a.Utilities[i] != b.Utilities[i] || a.Bids[i] != b.Bids[i] || a.Retained[i] != b.Retained[i] {
			return false
		}
	}
	return true
}
