package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dlsmech/internal/ledger"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/sign"
	"dlsmech/internal/verify"
	"dlsmech/internal/wire"
)

// deferLedger is the evidence store in dir as the daemon takes it: not yet
// read, for Listen's recovery to open in one pass.
func deferLedger(t *testing.T, dir string) *ledger.Store {
	t.Helper()
	return ledger.Defer(dir, 0, nil)
}

// openLedger opens the evidence store in dir whole, as an auditor does.
func openLedger(t *testing.T, dir string) *ledger.Store {
	t.Helper()
	be, err := ledger.OpenFile(dir, 0)
	if err != nil {
		t.Fatalf("ledger backend %s: %v", dir, err)
	}
	st, err := ledger.Open(be, nil)
	if err != nil {
		t.Fatalf("ledger store %s: %v", dir, err)
	}
	return st
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

// phase2Sink forwards only Phase I/II evidence (bids and allocation
// frames) to the underlying round log, modeling an arbiter that crashed
// after Phase II: the round ran, but only its first two phases ever
// reached the disk.
type phase2Sink struct{ rl *ledger.RoundLog }

func (s phase2Sink) RecordBid(slot int, sg sign.Signed) { s.rl.RecordBid(slot, sg) }
func (s phase2Sink) RecordAlloc(g wire.Alloc)           { s.rl.RecordAlloc(g) }
func (s phase2Sink) RecordLoadAck(int, wire.Load)       {}
func (s phase2Sink) RecordGrievance(wire.Grievance)     {}
func (s phase2Sink) RecordBill(wire.Bill)               {}

// TestLedgerCrashRecoveryResume is the crash→reload→resume acceptance
// path: rounds 1..k-1 are served and settled, the arbiter "crashes" after
// Phase II of round k (bids and allocs durable, nothing later), and a
// restarted daemon must (a) apply rounds 1..k-1 from their journals, (b)
// resume round k — the re-run's artifacts dedup into the partial evidence,
// no forks — and settle it exactly as an uninterrupted run would have, and
// (c) keep serving from the recovered warm session.
func TestLedgerCrashRecoveryResume(t *testing.T) {
	dir := t.TempDir()
	net := servertest.ChainNet(4, 42)
	hello := wire.Hello{Tenant: "crash", Size: net.Size(), Seed: 7}
	const k = 5
	rqs := make([]wire.Round, k)
	for i := range rqs {
		rqs[i] = servertest.RoundFor(net, uint64(i+1), uint64(100+i))
	}

	// Epoch 1: serve rounds 1..k-1 normally.
	st1 := deferLedger(t, dir)
	s1, err := server.Listen(server.Config{Ledger: st1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	c, err := server.Dial(s1.Addr().String(), hello)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	acked := make([][]byte, 0, k-1)
	for _, rq := range rqs[:k-1] {
		rr, err := c.Round(rq)
		if err != nil {
			t.Fatalf("round %d: %v", rq.Seq, err)
		}
		acked = append(acked, wire.AppendRoundResult(nil, rr))
	}
	c.Close()
	shutdownServer(t, s1)
	if err := st1.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// Epoch 2: the crash. Open round k, run it as the daemon does (seeded
	// by its generation), and let only Phase I/II evidence reach the log
	// before the "kill".
	st2 := openLedger(t, dir)
	sl, err := st2.ResumeSession(1)
	if err != nil {
		t.Fatalf("resume session: %v", err)
	}
	rl, err := sl.OpenRound(rqs[k-1])
	if err != nil {
		t.Fatalf("open round %d: %v", k, err)
	}
	params, err := server.RoundParams(hello.Size, rqs[k-1])
	if err != nil {
		t.Fatal(err)
	}
	params.Evidence, params.Gen = phase2Sink{rl}, rl.Gen()
	resK, err := protocol.NewSession(hello.Size, hello.Seed).Run(params)
	if err != nil {
		t.Fatalf("round %d: %v", k, err)
	}
	wantK := wire.AppendRoundResult(nil, server.ResultToWire(rqs[k-1].Seq, resK))
	if gv := st2.Session(1).Gens[k-1]; gv.Closed() || len(gv.Artifacts) == 0 {
		t.Fatalf("crash setup: gen %d closed=%v artifacts=%d", k, gv.Closed(), len(gv.Artifacts))
	}
	// kill -9: no settle record, no explicit sync.
	if err := st2.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// Epoch 3: restart. Listen runs recovery — replay, resume, settle.
	st3 := deferLedger(t, dir)
	s3, err := server.Listen(server.Config{Ledger: st3, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart over crashed ledger: %v", err)
	}
	// Recovery forgot every generation it replayed or settled.
	if sv := st3.Session(1); sv == nil || sv.Opened != k || len(sv.Gens) != 0 {
		t.Fatalf("recovered session damaged: %+v", sv)
	}
	if forks := st3.Forks(); len(forks) != 0 {
		t.Fatalf("resume forked the evidence: %v", forks)
	}
	// The recovered session serves round k+1 warm.
	c3, err := server.Dial(s3.Addr().String(), hello)
	if err != nil {
		t.Fatalf("dial after recovery: %v", err)
	}
	if !c3.Ack().Pooled {
		t.Fatal("recovered session was not pooled")
	}
	rq6 := servertest.RoundFor(net, k+1, 200)
	if _, err := c3.Round(rq6); err != nil {
		t.Fatalf("round after recovery: %v", err)
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
	if sv == nil || len(sv.Gens) != k+1 {
		t.Fatalf("recovered session damaged: %+v", sv)
	}
	for i, gv := range sv.Gens {
		if gv.Settle.IsZero() {
			t.Fatalf("gen %d not settled after recovery", i+1)
		}
	}
	if forks := st4.Forks(); len(forks) != 0 {
		t.Fatalf("resume forked the evidence: %v", forks)
	}
	// Rounds 1..k-1: settle payloads byte-identical to what the client was
	// acknowledged in epoch 1.
	for i, gv := range sv.Gens[:k-1] {
		rec, err := st4.Get(gv.Settle)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Payload, acked[i]) {
			t.Fatalf("gen %d settle differs from the acked result", i+1)
		}
	}
	// Round k: settled exactly as the uninterrupted run would have.
	rec, err := st4.Get(sv.Gens[k-1].Settle)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Payload, wantK) {
		t.Fatalf("resumed round %d settled differently from the uninterrupted run", k)
	}

	// The full log passes the audit with zero violations.
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

// TestLedgerDrainDurability is the fsync-before-ack invariant under
// drain: clients hammer rounds while the server shuts down mid-flight,
// and every result a client was acknowledged must afterwards exist in the
// reopened ledger as a byte-identical settle record.
func TestLedgerDrainDurability(t *testing.T) {
	dir := t.TempDir()
	st := deferLedger(t, dir)
	s, err := server.Listen(server.Config{Ledger: st, Logf: t.Logf})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	net := servertest.ChainNet(3, 42)

	type ackRec struct {
		seq     uint64
		payload []byte
	}
	var mu sync.Mutex
	ackedByTenant := make(map[string][]ackRec)

	const workers = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("drain-%d", w)
			hello := wire.Hello{Tenant: tenant, Size: net.Size(), Seed: 7}
			c, err := server.Dial(s.Addr().String(), hello)
			if err != nil {
				return // draining before we connected
			}
			defer c.Close()
			for seq := uint64(1); ; seq++ {
				rr, err := c.Round(servertest.RoundFor(net, seq, uint64(w*1000)+seq))
				if err != nil {
					return // drained mid-flight: acks so far are the contract
				}
				mu.Lock()
				ackedByTenant[tenant] = append(ackedByTenant[tenant], ackRec{seq, wire.AppendRoundResult(nil, rr)})
				mu.Unlock()
			}
		}(w)
	}

	// Let rounds get in flight, then drain while they are running.
	time.Sleep(250 * time.Millisecond)
	shutdownServer(t, s)
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var total int
	for _, acks := range ackedByTenant {
		total += len(acks)
	}
	if total == 0 {
		t.Fatal("no rounds were acknowledged before the drain finished")
	}

	st2 := openLedger(t, dir)
	defer st2.Close()
	byTenant := make(map[string]*ledger.SessionView)
	for _, sv := range st2.Sessions() {
		byTenant[sv.Hello.Tenant] = sv
	}
	for tenant, acks := range ackedByTenant {
		sv := byTenant[tenant]
		if sv == nil {
			t.Fatalf("tenant %s has acked rounds but no ledger session", tenant)
		}
		bySeq := make(map[uint64]ledger.Hash)
		for _, gv := range sv.Gens {
			if !gv.Settle.IsZero() {
				bySeq[gv.Round.Seq] = gv.Settle
			}
		}
		for _, a := range acks {
			h, ok := bySeq[a.seq]
			if !ok {
				t.Fatalf("tenant %s seq %d was acknowledged but has no durable settle record", tenant, a.seq)
			}
			rec, err := st2.Get(h)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Payload, a.payload) {
				t.Fatalf("tenant %s seq %d: durable settle differs from the acked result", tenant, a.seq)
			}
		}
	}
}

// TestAuditDetectsDoubleSubmissionFork: a second, different record in an
// occupied (session, gen, slot, kind) cell — the DAG analog of a double
// spend — must surface as an audit violation.
func TestAuditDetectsDoubleSubmissionFork(t *testing.T) {
	be := ledger.NewMemBackend()
	st, err := ledger.Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := servertest.ChainNet(3, 5)
	hello := wire.Hello{Tenant: "forked", Size: net.Size(), Seed: 13}
	rq := servertest.RoundFor(net, 1, 21)
	sl, err := st.OpenSession(hello)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := sl.OpenRound(rq)
	if err != nil {
		t.Fatal(err)
	}
	params, err := server.RoundParams(hello.Size, rq)
	if err != nil {
		t.Fatal(err)
	}
	params.Evidence = rl
	res, err := protocol.NewSession(hello.Size, hello.Seed).Run(params)
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.Close(server.ResultToWire(rq.Seq, res)); err != nil {
		t.Fatal(err)
	}

	// The double submission: processor 1 "re-bids" a different commitment
	// into its already-occupied Phase I slot. The serving store forgot the
	// generation when it settled and refuses the append; a store reopened
	// over the same log, as an auditor opens it, takes it as a fork.
	st2, err := ledger.Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	open := st2.Session(sl.ID()).Gens[0].Open
	forged := sign.NewSigner(1, hello.Seed).Sign([]byte("second, different bid"))
	rec := ledger.Record{
		Kind: ledger.KindBid, Session: sl.ID(), Gen: 1, Slot: 1,
		Parents: []ledger.Hash{open},
		Payload: wire.AppendBid(nil, wire.Bid{From: 1, Signed: []sign.Signed{forged}}),
	}
	if _, _, err := st.Put(rec); !errors.Is(err, ledger.ErrForgotten) {
		t.Fatalf("serving store took an append to a settled generation: %v", err)
	}
	if _, _, err := st2.Put(rec); err != nil {
		t.Fatal(err)
	}
	if len(st2.Forks()) != 1 {
		t.Fatalf("want 1 fork, got %v", st2.Forks())
	}

	rep, err := server.AuditLedger(st2, server.AuditOptions{Strict: true, MaxTheoremCells: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Violations == 0 {
		t.Fatal("audit reported a forked ledger as clean")
	}
	var forkVerdict bool
	for _, v := range rep.Violations() {
		t.Logf("violation: %s", v)
		if v.Checker == "ledger-fork" {
			forkVerdict = true
		}
	}
	if !forkVerdict {
		t.Fatalf("no ledger-fork verdict among violations: %+v", rep.Violations())
	}
}

// TestLedgerRoundsRecordedAndAudited: the plain serving path — every
// served round lands settled in the log, and the log passes a strict
// audit including the theorem replay.
func TestLedgerRoundsRecordedAndAudited(t *testing.T) {
	dir := t.TempDir()
	st := deferLedger(t, dir)
	s, err := server.Listen(server.Config{Ledger: st, Logf: t.Logf})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	net := servertest.ChainNet(4, 3)
	hello := wire.Hello{Tenant: "plain", Size: net.Size(), Seed: 5}
	c, err := server.Dial(s.Addr().String(), hello)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := c.Round(servertest.RoundFor(net, seq, 40+seq)); err != nil {
			t.Fatalf("round %d: %v", seq, err)
		}
	}
	c.Close()
	shutdownServer(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openLedger(t, dir)
	defer st2.Close()
	rep, err := server.AuditLedger(st2, server.AuditOptions{Strict: true, MaxTheoremCells: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Violations != 0 {
		for _, v := range rep.Violations() {
			t.Errorf("audit violation: %s", v)
		}
		t.Fatal("audit of a clean serving run found violations")
	}
	// The report round-trips through its schema.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := verify.ValidateReport(buf.Bytes()); err != nil {
		t.Fatalf("report schema: %v", err)
	}
}
