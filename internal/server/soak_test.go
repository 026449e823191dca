package server_test

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dlsmech/internal/ledger"
	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/wire"
)

// Soak scale knobs. The defaults keep the test tractable inside the plain
// tier-1 run on one CPU; the CI soak job raises -soak-sessions to 1000.
var (
	soakSessions = flag.Int("soak-sessions", 256, "concurrent soak sessions")
	soakRounds   = flag.Int("soak-rounds", 2, "rounds per soak session")
	soakM        = flag.Int("soak-m", 64, "strategic processors per soak session")
	// The CI soak job raises -soak-stream-loads to 1000.
	soakStreamLoads = flag.Int("soak-stream-loads", 200, "loads in the stream soak")
)

// TestSoak floods the daemon with concurrent sessions — every connection
// its own session at m workers, several rounds each — and asserts the
// daemon comes back to rest: no goroutine growth, no file-descriptor
// growth, no session leaks, every tenant ledger conserved, every round
// completed and counted.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped with -short")
	}
	sessions, rounds, m := *soakSessions, *soakRounds, *soakM
	const tenants = 8

	baseGoroutines := runtime.NumGoroutine()
	baseFDs := server.FDCount()

	h := servertest.Start(t, server.Config{
		MaxConns:    sessions + 64,
		MaxSessions: sessions + 16,
		// The provisioning burst (sessions × size keygens) starves round
		// goroutines on small machines; soak rounds ask for a detector
		// budget loose enough to ride it out, and the admission cap must
		// admit them.
		MaxDetectorWait: 10 * time.Minute,
		Logf:            func(string, ...any) {}, // the drain log races with -v output volume
	})
	netw := servertest.ChainNet(m, 1234)
	size := netw.Size()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("soak-%d", i%tenants)
			// Distinct seeds: every connection provisions (and exercises)
			// its own session concurrently.
			c, err := server.Dial(h.Addr, wire.Hello{Tenant: tenant, Size: size, Seed: uint64(1000 + i)})
			if err != nil {
				errs <- fmt.Errorf("session %d: dial: %w", i, err)
				return
			}
			defer c.Close()
			c.Timeout = 5 * time.Minute // rounds queue behind the concurrency gate
			for r := 0; r < rounds; r++ {
				rq := servertest.RoundFor(netw, uint64(r+1), uint64(i*1000+r))
				// Fault-free rounds never sit on a timer, so a generous
				// detector budget costs nothing in latency but tolerates
				// scheduler starvation during the provisioning burst.
				rq.TimeoutNs = int64(250 * time.Millisecond)
				rq.Retries = 2
				rq.Backoff = 2
				rr, err := c.Round(rq)
				if err != nil {
					errs <- fmt.Errorf("session %d round %d: %w", i, r, err)
					return
				}
				if !rr.Completed || !rr.NetZero {
					errs <- fmt.Errorf("session %d round %d: completed=%v netZero=%v", i, r, rr.Completed, rr.NetZero)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiescence: every connection handler exits, every session returns.
	waitFor(t, "connections drained", func() bool {
		return h.Gauge(server.MetricConnsActive) == 0
	})
	waitFor(t, "sessions returned", func() bool {
		return h.Gauge(server.MetricSessionsActive) == 0
	})

	if leaks := h.Counter(server.MetricSessionLeaks); leaks != 0 {
		t.Errorf("%d sessions leaked", leaks)
	}
	wantRounds := int64(sessions * rounds)
	if served := h.Counter(server.MetricRoundsServed); served != wantRounds {
		t.Errorf("rounds served %d, want %d", served, wantRounds)
	}
	if failed := h.Counter(server.MetricRoundsFailed); failed != 0 {
		t.Errorf("%d rounds failed", failed)
	}
	if bad := h.Counter(server.MetricLedgerFailures); bad != 0 {
		t.Errorf("%d ledger conservation failures", bad)
	}
	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("soak-%d", i)
		if !h.S.TenantLedgerNetZero(tenant, 1e-4) {
			t.Errorf("tenant %s cumulative ledger lost money", tenant)
		}
	}

	// Leak checks: goroutines and file descriptors return to baseline
	// (with slack for runtime timers and the still-listening server).
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines+24
	})
	if baseFDs >= 0 {
		waitFor(t, "file descriptors to settle", func() bool {
			return server.FDCount() <= baseFDs+24
		})
	}
}

// TestSoakStream pushes one long pipelined stream through the daemon — the
// backlog shape the pipeline exists for — with an evidence ledger attached,
// and asserts the daemon comes back to rest: every load answered in order,
// every settle durable, no goroutine or FD growth, ledger fork-free.
func TestSoakStream(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped with -short")
	}
	loads := *soakStreamLoads
	const m = 8

	baseGoroutines := runtime.NumGoroutine()
	baseFDs := server.FDCount()

	dir := t.TempDir()
	st := deferLedger(t, dir)
	h := servertest.Start(t, server.Config{
		Ledger:          st,
		MaxStreamCount:  loads + 16,
		MaxDetectorWait: 10 * time.Minute,
		Logf:            func(string, ...any) {},
	})
	t.Cleanup(func() { st.Close() })
	netw := servertest.ChainNet(m, 77)
	hello := wire.Hello{Tenant: "stream-soak", Size: netw.Size(), Seed: 13}
	c := h.Dial(t, hello)
	c.Timeout = 5 * time.Minute

	base := servertest.RoundFor(netw, 1, 40_000)
	base.TimeoutNs = int64(250 * time.Millisecond)
	base.Retries = 2
	base.Backoff = 2
	var nextSeq = base.Seq
	se, err := c.Stream(wire.Stream{Count: uint32(loads), Depth: 4, SeedStride: 7919, Round: base},
		func(rr wire.RoundResult) error {
			if rr.Seq != nextSeq {
				return fmt.Errorf("result seq %d, want %d (stream answers out of order)", rr.Seq, nextSeq)
			}
			nextSeq++
			if !rr.Completed || !rr.NetZero {
				return fmt.Errorf("load %d: completed=%v netZero=%v", rr.Seq, rr.Completed, rr.NetZero)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if se.Code != server.StreamOK || se.Served != uint32(loads) {
		t.Fatalf("stream ended %q served=%d, want %q/%d", se.Code, se.Served, server.StreamOK, loads)
	}
	c.Close()

	waitFor(t, "connections drained", func() bool {
		return h.Gauge(server.MetricConnsActive) == 0
	})
	waitFor(t, "sessions returned", func() bool {
		return h.Gauge(server.MetricSessionsActive) == 0
	})
	if leaks := h.Counter(server.MetricSessionLeaks); leaks != 0 {
		t.Errorf("%d sessions leaked", leaks)
	}
	if got := h.Counter(server.MetricStreamLoads); got != int64(loads) {
		t.Errorf("stream loads served %d, want %d", got, loads)
	}
	if failed := h.Counter(server.MetricRoundsFailed); failed != 0 {
		t.Errorf("%d loads failed", failed)
	}
	if bad := h.Counter(server.MetricLedgerFailures); bad != 0 {
		t.Errorf("%d ledger conservation failures", bad)
	}
	if bad := h.Counter(server.MetricLedgerRoundFailures); bad != 0 {
		t.Errorf("%d ledger round failures", bad)
	}
	if occ := h.Gauge(server.MetricPipelineOccupancy); occ != 0 {
		t.Errorf("pipeline occupancy %v after quiescence", occ)
	}
	if !h.S.TenantLedgerNetZero("stream-soak", 1e-4) {
		t.Error("tenant cumulative ledger lost money")
	}

	// The serving store forgot every settled load.
	if sv := st.Session(1); sv == nil || sv.Opened != uint64(loads) || len(sv.Gens) != 0 {
		t.Fatalf("serving store holds %+v, want %d generations opened and none held", sv, loads)
	}
	// Every load is durably settled, gap-free, in one unforked session log:
	// the log reopened alongside the quiesced daemon holds them all.
	st2 := openLedger(t, dir)
	sv := st2.Session(1)
	if sv == nil || len(sv.Gens) != loads {
		t.Fatalf("ledger holds %d generations, want %d", len(sv.Gens), loads)
	}
	for i, gv := range sv.Gens {
		if gv.Settle.IsZero() {
			t.Fatalf("gen %d not settled", i+1)
		}
	}
	for _, st := range []*ledger.Store{st, st2} {
		if forks := st.Forks(); len(forks) != 0 {
			t.Fatalf("stream forked the evidence: %v", forks)
		}
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines+24
	})
	if baseFDs >= 0 {
		waitFor(t, "file descriptors to settle", func() bool {
			return server.FDCount() <= baseFDs+24
		})
	}
}
