package ledger_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dlsmech/internal/ledger"
	"dlsmech/internal/obs"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// boundedSegSize makes the bounded-state suite roll segments.
const boundedSegSize = 1 << 14

// counts is what a store and its backend hold in memory.
type counts struct{ records, keys, gens, index int }

func liveCounts(st *ledger.Store, be *ledger.FileBackend) counts {
	records, keys, gens := ledger.LiveEntries(st)
	return counts{records, keys, gens, be.Len()}
}

// serveBounded serves n real m=4 rounds through SessionLog/RoundLog onto a
// FileBackend in dir: round 2 is opened and voided, rounds 3 and 4 are a
// pipelined pair closed out of order (4 opens before 3 closes, and closes
// first), every other round is opened, run and closed. It returns the
// counts after the last close and the session ID.
func serveBounded(t *testing.T, dir string, n int) (counts, uint64) {
	t.Helper()
	be, err := ledger.OpenFile(dir, boundedSegSize)
	if err != nil {
		t.Fatal(err)
	}
	met := ledger.NewMetrics(obs.NewRegistry(), "t")
	st, err := ledger.Open(be, met)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	net := servertest.ChainNet(4, 17)
	hello := wire.Hello{Tenant: "bounded", Size: net.Size(), Seed: 3}
	sl, err := st.OpenSession(hello)
	if err != nil {
		t.Fatal(err)
	}
	sess := protocol.NewSession(hello.Size, hello.Seed)
	open := func(seq uint64) (wire.Round, *ledger.RoundLog) {
		rq := servertest.RoundFor(net, seq, 100+seq)
		rl, err := sl.OpenRound(rq)
		if err != nil {
			t.Fatalf("open round %d: %v", seq, err)
		}
		return rq, rl
	}
	// run runs the round as the daemon does: seeded by its generation,
	// its journal staged for the close.
	run := func(rq wire.Round, rl *ledger.RoundLog) wire.RoundResult {
		params, err := server.RoundParams(hello.Size, rq)
		if err != nil {
			t.Fatal(err)
		}
		params.Evidence, params.Gen = rl, rl.Gen()
		res, err := sess.Run(params)
		if err != nil {
			t.Fatalf("round %d: %v", rq.Seq, err)
		}
		rl.RecordJournal(server.JournalToWire(res))
		return server.ResultToWire(rq.Seq, res)
	}
	var last *ledger.RoundLog
	for seq := uint64(1); seq <= uint64(n); seq++ {
		switch {
		case seq == 2:
			_, rl := open(seq)
			if err := rl.Void(server.CodeRunFailed, "voided by the bounded-state suite"); err != nil {
				t.Fatal(err)
			}
		case seq == 3 && n >= 4:
			rq3, rl3 := open(3)
			rq4, rl4 := open(4)
			rr3, rr4 := run(rq3, rl3), run(rq4, rl4)
			if err := rl4.CloseDeferred(rr4); err != nil {
				t.Fatal(err)
			}
			if err := rl3.CloseDeferred(rr3); err != nil {
				t.Fatal(err)
			}
			if err := sl.Sync(); err != nil {
				t.Fatal(err)
			}
			seq = 4
		default:
			rq, rl := open(seq)
			if err := rl.Close(run(rq, rl)); err != nil {
				t.Fatal(err)
			}
			last = rl
		}
	}
	c := liveCounts(st, be)
	if records, openGens := st.Live(); met.LiveRecords.Value() != float64(records) || met.OpenGenerations.Value() != float64(openGens) || openGens != 0 {
		t.Fatalf("gauges read %v live records and %v open generations; the store holds %d and %d",
			met.LiveRecords.Value(), met.OpenGenerations.Value(), records, openGens)
	}

	// A late append to the closed round is refused and never reaches disk.
	before := logBytes(t, dir)
	last.RecordBid(1, sign.NewSigner(1, hello.Seed).Sign([]byte("after the close")))
	if err := last.Err(); !errors.Is(err, ledger.ErrForgotten) {
		t.Fatalf("RecordBid after Close: Err() = %v, want ErrForgotten", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := logBytes(t, dir); got != before {
		t.Fatalf("a refused append reached the log: %d bytes, want %d", got, before)
	}
	return c, sl.ID()
}

// logBytes sums the sizes of dir's segment files.
func logBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestLiveStateBounded: what a serving store and its FileBackend hold
// after the last close does not grow with the rounds served: K and 4K
// rounds leave the same counts, and as many records and index entries as
// one freshly opened round. The log still holds every generation, which a
// reopened store verifies and audits clean.
func TestLiveStateBounded(t *testing.T) {
	const k = 6
	small, _ := serveBounded(t, t.TempDir(), k)
	dir := t.TempDir()
	large, id := serveBounded(t, dir, 4*k)
	if small != large {
		t.Fatalf("live state grew with history: %d rounds leave %+v, %d rounds leave %+v", k, small, 4*k, large)
	}
	if large.gens != 0 {
		t.Fatalf("%d generations held after the last close, want 0", large.gens)
	}

	// One session with one freshly opened round, for scale.
	be, err := ledger.OpenFile(t.TempDir(), boundedSegSize)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ledger.Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sl, err := st.OpenSession(wire.Hello{Tenant: "one", Size: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sl.OpenRound(wire.Round{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	one := liveCounts(st, be)
	if large.records != one.records || large.index != one.index {
		t.Fatalf("after the last close the store holds %d records and the backend %d index entries; one open round holds %d and %d",
			large.records, large.index, one.records, one.index)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("want at least 3 segments, got %d", len(segs))
	}
	re, err := ledger.OpenDir(dir, boundedSegSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sv := re.Session(id)
	if sv == nil || sv.Opened != 4*k || len(sv.Gens) != 4*k {
		t.Fatalf("reopened store: %+v, want all %d generations", sv, 4*k)
	}
	if sv.Gens[1].Void.IsZero() || sv.Gens[2].Settle.IsZero() || sv.Gens[3].Settle.IsZero() {
		t.Fatalf("reopened store lost the void or the pipelined pair: %+v %+v %+v", sv.Gens[1], sv.Gens[2], sv.Gens[3])
	}
	if issues := re.VerifySession(id); len(issues) != 0 {
		t.Fatalf("VerifySession: %v", issues)
	}
	rep, err := server.AuditLedger(re, server.AuditOptions{Strict: true, MaxTheoremCells: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Violations != 0 {
		for _, v := range rep.Violations() {
			t.Errorf("audit violation: %s", v)
		}
		t.Fatalf("audit found %d violations", rep.Summary.Violations)
	}
}
