package server_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"dlsmech/internal/core"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/verify"
	"dlsmech/internal/wire"
)

// streamFor wraps a base round into a stream request.
func streamFor(rq wire.Round, count, depth uint32, stride uint64) wire.Stream {
	return wire.Stream{Count: count, Depth: depth, SeedStride: stride, Round: rq}
}

// TestLoopbackStreamBitIdentity: a pipelined stream served over TCP must
// answer every load bit-identical to k sequential in-process rounds at
// equal seeds, at every depth — the transport- and pipeline-invisibility
// contract in one assertion.
func TestLoopbackStreamBitIdentity(t *testing.T) {
	net := servertest.ChainNet(6, 42)
	const count = 6
	base := servertest.RoundFor(net, 10, 5000)
	base.AuditProb = 1 // exercise the audit path on every load
	const stride = 7919

	// Sequential in-process baseline: one fresh session, count rounds.
	want := make([][]byte, count)
	sess := protocol.NewSession(net.Size(), 7)
	for k := uint64(0); k < count; k++ {
		rq := base
		rq.Seq = base.Seq + k
		rq.Seed = base.Seed + stride*k
		params, err := server.RoundParams(net.Size(), rq)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(params)
		if err != nil {
			t.Fatalf("baseline load %d: %v", k, err)
		}
		want[k] = wire.AppendRoundResult(nil, server.ResultToWire(rq.Seq, res))
	}

	h := servertest.Start(t, server.Config{})
	for _, depth := range []uint32{1, 2, 4} {
		// A distinct tenant per depth gets a fresh (cold) server session with
		// the same (size, seed) — same keys, same determinism.
		hello := wire.Hello{Tenant: "depth", Size: net.Size(), Seed: 7}
		hello.Tenant = string(rune('a'+depth)) + "-stream"
		c := h.Dial(t, hello)

		var got [][]byte
		se, err := c.Stream(streamFor(base, count, depth, stride), func(rr wire.RoundResult) error {
			got = append(got, wire.AppendRoundResult(nil, rr))
			return nil
		})
		if err != nil {
			t.Fatalf("depth %d: stream: %v", depth, err)
		}
		if se.Code != server.StreamOK || se.Served != count {
			t.Fatalf("depth %d: stream ended %q served=%d, want %q/%d", depth, se.Code, se.Served, server.StreamOK, count)
		}
		if len(got) != count {
			t.Fatalf("depth %d: %d results, want %d", depth, len(got), count)
		}
		for k := range got {
			if !bytes.Equal(got[k], want[k]) {
				t.Fatalf("depth %d load %d: streamed result differs from the sequential in-process round", depth, k)
			}
		}
		// The stream leaves the session warm and consistent: a plain round
		// afterwards still matches a fresh session replaying the history.
		if _, err := c.Round(servertest.RoundFor(net, 100, 9000)); err != nil {
			t.Fatalf("depth %d: round after stream: %v", depth, err)
		}
		if !h.S.TenantLedgerNetZero(hello.Tenant, 1e-5) {
			t.Fatalf("depth %d: tenant ledger lost money", depth)
		}
	}
	if served := h.Counter(server.MetricStreamsServed); served != 3 {
		t.Fatalf("streams_served=%d, want 3", served)
	}
	if loads := h.Counter(server.MetricStreamLoads); loads != 3*count {
		t.Fatalf("stream_loads=%d, want %d", loads, 3*count)
	}

	// The scenario every load came from passes the theorem checkers.
	checkScenario(t, &verify.Scenario{Net: net, Cfg: core.DefaultConfig(), Seed: base.Seed})
}

// TestStreamDrainMidStream: shutting the server down mid-stream ends the
// stream with a "draining" StreamEnd after the in-flight loads settle —
// every acknowledged load is complete, none is abandoned half-settled.
func TestStreamDrainMidStream(t *testing.T) {
	h := servertest.Start(t, server.Config{Logf: func(string, ...any) {}})
	net := servertest.ChainNet(6, 17)
	hello := wire.Hello{Tenant: "drain", Size: net.Size(), Seed: 3}
	c := h.Dial(t, hello)
	c.Timeout = time.Minute

	const count = 400
	var once sync.Once
	shutdownDone := make(chan struct{})
	var served int
	se, err := c.Stream(streamFor(servertest.RoundFor(net, 1, 100), count, 2, 1), func(rr wire.RoundResult) error {
		if !rr.Completed || !rr.NetZero {
			t.Errorf("load %d: completed=%v netZero=%v", rr.Seq, rr.Completed, rr.NetZero)
		}
		served++
		once.Do(func() {
			go func() {
				defer close(shutdownDone)
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				defer cancel()
				h.S.Shutdown(ctx)
			}()
		})
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	<-shutdownDone
	if se.Code != server.StreamDraining {
		t.Fatalf("stream ended %q, want %q (served %d)", se.Code, server.StreamDraining, se.Served)
	}
	if se.Served != uint32(served) {
		t.Fatalf("StreamEnd served=%d, client saw %d", se.Served, served)
	}
	if se.Served == 0 || se.Served >= count {
		t.Fatalf("drain served %d of %d loads; expected a strict mid-stream cut", se.Served, count)
	}
	if !h.S.TenantLedgerNetZero("drain", 1e-4) {
		t.Fatal("tenant ledger lost money across the drained stream")
	}
}

// TestStreamRefusals: out-of-bounds streams get a typed SrvError plus a
// terminal StreamEnd, and the connection survives to serve plain rounds.
func TestStreamRefusals(t *testing.T) {
	h := servertest.Start(t, server.Config{MaxStreamCount: 8, MaxStreamDepth: 2})
	net := servertest.ChainNet(4, 5)
	hello := wire.Hello{Tenant: "refuse", Size: net.Size(), Seed: 1}
	c := h.Dial(t, hello)

	cases := []struct {
		name string
		sq   wire.Stream
	}{
		{"count over cap", streamFor(servertest.RoundFor(net, 1, 1), 9, 1, 1)},
		{"depth over cap", streamFor(servertest.RoundFor(net, 1, 1), 4, 3, 1)},
	}
	for _, tc := range cases {
		se, err := c.Stream(tc.sq, func(rr wire.RoundResult) error {
			t.Errorf("%s: refused stream produced a result", tc.name)
			return nil
		})
		if err == nil {
			t.Fatalf("%s: no SrvError", tc.name)
		}
		if serr, ok := server.IsServerError(err); !ok || serr.E.Code != server.CodeBadRound {
			t.Fatalf("%s: refused with %v, want %s", tc.name, err, server.CodeBadRound)
		}
		if se.Code != server.StreamRunFailed || se.Served != 0 {
			t.Fatalf("%s: StreamEnd %q served=%d, want %q/0", tc.name, se.Code, se.Served, server.StreamRunFailed)
		}
	}

	// The connection is still usable for both request kinds.
	if _, err := c.Round(servertest.RoundFor(net, 5, 5)); err != nil {
		t.Fatalf("round after refusals: %v", err)
	}
	se, err := c.Stream(streamFor(servertest.RoundFor(net, 6, 6), 2, 2, 1), nil)
	if err != nil || se.Code != server.StreamOK || se.Served != 2 {
		t.Fatalf("stream after refusals: se=%+v err=%v", se, err)
	}
}

// TestStreamLedgerCrashRecovery is the pipelined crash signature: a stream
// leaves multiple trailing open generations when the arbiter dies — load k
// fully exchanged but unsettled (the settle worker was behind), load k+1
// mid-exchange with partial evidence. A restarted daemon must resume BOTH,
// settle them exactly as the uninterrupted pipeline would have, and pass a
// strict audit.
func TestStreamLedgerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	net := servertest.ChainNet(4, 42)
	hello := wire.Hello{Tenant: "pipecrash", Size: net.Size(), Seed: 7}
	base := servertest.RoundFor(net, 1, 100)
	const settled, opens = 3, 2 // 3 loads settle; gens 4 and 5 are left open
	rqs := make([]wire.Round, settled+opens)
	for i := range rqs {
		rqs[i] = base
		rqs[i].Seq = base.Seq + uint64(i)
		rqs[i].Seed = base.Seed + 7919*uint64(i)
	}

	// Epoch 1: a depth-2 stream settles the first 3 loads through the real
	// daemon — the evidence spine is written by the pipelined path itself.
	st1 := deferLedger(t, dir)
	s1, err := server.Listen(server.Config{Ledger: st1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	c, err := server.Dial(s1.Addr().String(), hello)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var acked [][]byte
	se, err := c.Stream(streamFor(base, settled, 2, 7919), func(rr wire.RoundResult) error {
		acked = append(acked, wire.AppendRoundResult(nil, rr))
		return nil
	})
	if err != nil || se.Code != server.StreamOK {
		t.Fatalf("epoch-1 stream: se=%+v err=%v", se, err)
	}
	c.Close()
	shutdownServer(t, s1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Epoch 2: the crash. Leave gen 4 open with FULL artifacts (exchanged,
	// never settled) and gen 5 open with only Phase I/II evidence
	// (mid-exchange). Each load is seeded by its generation, as the daemon
	// runs it, so the settled loads need not run first.
	st2 := openLedger(t, dir)
	sl, err := st2.ResumeSession(1)
	if err != nil {
		t.Fatal(err)
	}
	sess := protocol.NewSession(hello.Size, hello.Seed)
	wantOpen := make([][]byte, opens)
	for i, full := range []bool{true, false} {
		rq := rqs[settled+i]
		rl, err := sl.OpenRound(rq)
		if err != nil {
			t.Fatal(err)
		}
		params, err := server.RoundParams(hello.Size, rq)
		if err != nil {
			t.Fatal(err)
		}
		params.Gen = rl.Gen()
		if full {
			params.Evidence = rl
		} else {
			params.Evidence = phase2Sink{rl}
		}
		res, err := sess.Run(params)
		if err != nil {
			t.Fatalf("crash load %d: %v", rq.Seq, err)
		}
		wantOpen[i] = wire.AppendRoundResult(nil, server.ResultToWire(rq.Seq, res))
	}
	for _, gv := range st2.Session(1).Gens[settled:] {
		if gv.Closed() {
			t.Fatalf("crash setup: gen %d already closed", gv.Gen)
		}
	}
	if err := st2.Close(); err != nil { // kill -9: no settle records
		t.Fatal(err)
	}

	// Epoch 3: restart. Recovery must settle every trailing open gen.
	st3 := deferLedger(t, dir)
	s3, err := server.Listen(server.Config{Ledger: st3, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart over mid-stream crash: %v", err)
	}
	// Recovery forgot every generation it replayed or settled.
	if sv := st3.Session(1); sv == nil || sv.Opened != settled+opens || len(sv.Gens) != 0 {
		t.Fatalf("recovered session damaged: %+v", sv)
	}
	if forks := st3.Forks(); len(forks) != 0 {
		t.Fatalf("pipelined resume forked the evidence: %v", forks)
	}

	// The recovered warm session serves a fresh stream.
	c3, err := server.Dial(s3.Addr().String(), hello)
	if err != nil {
		t.Fatal(err)
	}
	next := base
	next.Seq, next.Seed = 50, 9999
	se, err = c3.Stream(streamFor(next, 2, 2, 1), nil)
	if err != nil || se.Code != server.StreamOK || se.Served != 2 {
		t.Fatalf("stream after recovery: se=%+v err=%v", se, err)
	}
	c3.Close()
	shutdownServer(t, s3)
	if err := st3.Close(); err != nil {
		t.Fatal(err)
	}

	// The reopened log holds the whole history: every generation settled.
	st4 := openLedger(t, dir)
	defer st4.Close()
	sv := st4.Session(1)
	if sv == nil || len(sv.Gens) != settled+opens+2 {
		t.Fatalf("recovered session damaged: %+v", sv)
	}
	for i, gv := range sv.Gens {
		if gv.Settle.IsZero() {
			t.Fatalf("gen %d not settled after recovery", i+1)
		}
	}
	if forks := st4.Forks(); len(forks) != 0 {
		t.Fatalf("pipelined resume forked the evidence: %v", forks)
	}
	for i, gv := range sv.Gens[:settled] {
		rec, err := st4.Get(gv.Settle)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Payload, acked[i]) {
			t.Fatalf("gen %d settle differs from the streamed ack", i+1)
		}
	}
	for i, gv := range sv.Gens[settled : settled+opens] {
		rec, err := st4.Get(gv.Settle)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Payload, wantOpen[i]) {
			t.Fatalf("resumed gen %d settled differently from the uninterrupted run", settled+i+1)
		}
	}

	rep, err := server.AuditLedger(st4, server.AuditOptions{Strict: true, MaxTheoremCells: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if rep.Summary.Violations != 0 {
		for _, v := range rep.Violations() {
			t.Errorf("audit violation: %s", v)
		}
		t.Fatalf("audit found %d violations", rep.Summary.Violations)
	}
}
