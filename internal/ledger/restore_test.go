package ledger_test

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"dlsmech/internal/ledger"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/wire"
)

// openTail appends one more round to the session served by serveBounded
// in dir, running it with its evidence recorded but never closed: the
// footprint of a crash mid-round, for a restart to resume.
func openTail(t *testing.T, dir string, id uint64, n int) {
	t.Helper()
	st, err := ledger.OpenDir(dir, boundedSegSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	hello := st.Session(id).Hello
	sl, err := st.ResumeSession(id)
	if err != nil {
		t.Fatal(err)
	}
	rq := servertest.RoundFor(servertest.ChainNet(4, 17), uint64(n)+1, 101+uint64(n))
	params, err := server.RoundParams(hello.Size, rq)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := sl.OpenRound(rq)
	if err != nil {
		t.Fatal(err)
	}
	params.Evidence, params.Gen = rl, rl.Gen()
	if _, err := protocol.NewSession(hello.Size, hello.Seed).Run(params); err != nil {
		t.Fatalf("round %d: %v", rq.Seq, err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
}

// shutdownServer drains s within a test-scale budget.
func shutdownServer(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// restartLog collects a server's log lines.
type restartLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *restartLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

var peakRe = regexp.MustCompile(`recovery: .*live records peak (\d+), (\d+) after`)

// restart recovers a daemon over st, checks that it serves the session's
// next round, and returns the peak and final live-record counts its
// recovery line reports.
func restart(t *testing.T, st *ledger.Store, next uint64) (peak, after int) {
	t.Helper()
	var log restartLog
	s, err := server.Listen(server.Config{Addr: "127.0.0.1:0", Ledger: st, Logf: log.logf})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	net := servertest.ChainNet(4, 17)
	c, err := server.Dial(s.Addr().String(), wire.Hello{Tenant: "bounded", Size: net.Size(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Ack().Pooled {
		t.Fatal("the recovered session is not in the pool")
	}
	if _, err := c.Round(servertest.RoundFor(net, next, 100+next)); err != nil {
		t.Fatalf("round after recovery: %v", err)
	}
	c.Close()
	shutdownServer(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, line := range log.lines {
		if m := peakRe.FindStringSubmatch(line); m != nil {
			peak, _ = strconv.Atoi(m[1])
			after, _ = strconv.Atoi(m[2])
			return peak, after
		}
	}
	t.Fatalf("no recovery line among %q", log.lines)
	return 0, 0
}

// TestRestartLiveStateBounded: a restart holds what the open generations
// hold, not the history. Restarting over K and 4K real m=4 rounds (a void
// and a pipelined pair closed out of order among them, an interrupted
// round at the tail) peaks at the same number of live records, and the
// daemon then serves the session's next round from its recovered state.
func TestRestartLiveStateBounded(t *testing.T) {
	const k = 6
	var peaks, afters [2]int
	for i, n := range []int{k, 4 * k} {
		dir := t.TempDir()
		_, id := serveBounded(t, dir, n)
		openTail(t, dir, id, n)
		peaks[i], afters[i] = restart(t, ledger.Defer(dir, boundedSegSize, nil), uint64(n)+2)
	}
	t.Logf("restart peaks at %d live records (%d after) over %d rounds and %d (%d after) over %d", peaks[0], afters[0], k, peaks[1], afters[1], 4*k)
	if peaks[0] != peaks[1] || afters[0] != afters[1] {
		t.Fatalf("restart live records grew with history: %d rounds peak at %d (%d after), %d rounds at %d (%d after)",
			k, peaks[0], afters[0], 4*k, peaks[1], afters[1])
	}
	if peaks[0] == 0 {
		t.Fatal("recovery line reports no live records")
	}
}

// countingBackend counts what a restore reads: Get calls and Scan visits,
// per record.
type countingBackend struct {
	*ledger.FileBackend
	mu     sync.Mutex
	gets   map[ledger.Hash]int
	visits map[ledger.Hash]int
}

func (b *countingBackend) Get(h ledger.Hash) ([]byte, error) {
	b.mu.Lock()
	b.gets[h]++
	b.mu.Unlock()
	return b.FileBackend.Get(h)
}

func (b *countingBackend) Scan(fn func(h ledger.Hash, frame []byte) error) error {
	return b.FileBackend.Scan(func(h ledger.Hash, frame []byte) error {
		b.mu.Lock()
		b.visits[h]++
		b.mu.Unlock()
		return fn(h, frame)
	})
}

// TestRestoreReadsEachRecordOnce: recovery reads the log once. Every record
// is scanned exactly once, and no settled or voided generation's record
// (nor the interrupted tail's) is read again through Get.
func TestRestoreReadsEachRecordOnce(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	_, id := serveBounded(t, dir, n)
	openTail(t, dir, id, n)

	be, err := ledger.OpenFile(dir, boundedSegSize)
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{FileBackend: be, gets: map[ledger.Hash]int{}, visits: map[ledger.Hash]int{}}
	restart(t, ledger.DeferBackend(cb, nil), n+2)

	st, err := ledger.OpenDir(dir, boundedSegSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sv := st.Session(id)
	if len(sv.Gens) != n+2 {
		t.Fatalf("the log holds %d generations, want %d", len(sv.Gens), n+2)
	}
	closed := 0
	for _, gv := range sv.Gens[:n+1] { // the served rounds and the resumed tail
		for _, h := range append([]ledger.Hash{gv.Open, gv.Settle, gv.Void}, gv.Artifacts...) {
			if h.IsZero() {
				continue
			}
			if gv.Gen <= n && cb.visits[h] != 1 {
				t.Fatalf("gen %d record %s scanned %d times, want once", gv.Gen, h.Short(), cb.visits[h])
			}
			if cb.gets[h] != 0 {
				t.Fatalf("gen %d record %s read again %d times through Get", gv.Gen, h.Short(), cb.gets[h])
			}
		}
		if gv.Closed() {
			closed++
		}
	}
	if closed != n+1 {
		t.Fatalf("%d generations closed after recovery, want %d", closed, n+1)
	}
}

// TestRestoreHandsOverInGenerationOrder: Restore hands each session's
// generations over in generation order, a generation closed before an
// earlier one waiting for it, and hands over an open generation only after
// the scan.
func TestRestoreHandsOverInGenerationOrder(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	_, id := serveBounded(t, dir, n)
	openTail(t, dir, id, n)
	st := ledger.Defer(dir, boundedSegSize, nil)
	defer st.Close()
	var order []uint64
	var open []uint64
	stats, err := st.Restore(func(g *ledger.Generation) {
		if g.Session != id {
			t.Errorf("generation of session %d, want %d", g.Session, id)
		}
		if g.Closed() != (g.Close.Kind != 0) {
			t.Errorf("gen %d: closed %v but close record kind %d", g.Gen, g.Closed(), g.Close.Kind)
		}
		if len(g.Records) != len(g.Artifacts) {
			t.Errorf("gen %d: %d records for %d artifacts", g.Gen, len(g.Records), len(g.Artifacts))
		}
		order = append(order, g.Gen)
		if !g.Closed() {
			open = append(open, g.Gen)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, gen := range order {
		if gen != uint64(i+1) {
			t.Fatalf("generations handed over in order %v", order)
		}
	}
	if len(order) != n+1 || len(open) != 1 || open[0] != n+1 {
		t.Fatalf("handed over %v, open %v; want 1..%d with %d open", order, open, n+1, n+1)
	}
	if stats.Records == 0 || stats.PeakLive == 0 {
		t.Fatalf("stats %+v", stats)
	}
	if sv := st.Session(id); len(sv.Gens) != 1 || sv.Gens[0].Gen != n+1 {
		t.Fatalf("after the restore the store holds %+v, want only the open tail", sv.Gens)
	}
	if _, err := st.Restore(func(*ledger.Generation) {}); err == nil {
		t.Fatal("a second Restore succeeded")
	}
}
