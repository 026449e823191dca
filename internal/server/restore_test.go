package server_test

import (
	"strings"
	"testing"

	"dlsmech/internal/ledger"
	"dlsmech/internal/payment"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// badSigSink records evidence like its round log, except that P_1's bid
// reaches the log with a corrupted signature.
type badSigSink struct{ *ledger.RoundLog }

func (s badSigSink) RecordBid(slot int, sg sign.Signed) {
	if slot == 1 {
		sg = sg.Clone()
		sg.Sig[0] ^= 0xff
	}
	s.RoundLog.RecordBid(slot, sg)
}

// closeFunc settles round 2 of damagedLedger: rr and journal are what the
// daemon would journal and settle.
type closeFunc func(st *ledger.Store, rl *ledger.RoundLog, rr wire.RoundResult, journal []wire.JournalEntry) error

// damagedLedger writes two m=3 rounds of one session to a fresh ledger
// through a whole store, as the daemon would, except for round 2: sink
// wraps its round log and closeRound journals and settles it.
func damagedLedger(t *testing.T, sink func(*ledger.RoundLog) protocol.EvidenceSink, closeRound closeFunc) string {
	t.Helper()
	dir := t.TempDir()
	st := openLedger(t, dir)
	defer st.Close()
	net := servertest.ChainNet(3, 5)
	hello := wire.Hello{Tenant: "damaged", Size: net.Size(), Seed: 13}
	sl, err := st.OpenSession(hello)
	if err != nil {
		t.Fatal(err)
	}
	sess := protocol.NewSession(hello.Size, hello.Seed)
	for seq := uint64(1); seq <= 2; seq++ {
		rq := servertest.RoundFor(net, seq, 20+seq)
		rl, err := sl.OpenRound(rq)
		if err != nil {
			t.Fatal(err)
		}
		params, err := server.RoundParams(hello.Size, rq)
		if err != nil {
			t.Fatal(err)
		}
		params.Evidence, params.Gen = rl, rl.Gen()
		if seq == 2 && sink != nil {
			params.Evidence = sink(rl)
		}
		res, err := sess.Run(params)
		if err != nil {
			t.Fatal(err)
		}
		rr, journal := server.ResultToWire(rq.Seq, res), server.JournalToWire(res)
		if seq == 2 && closeRound != nil {
			err = closeRound(st, rl, rr, journal)
		} else {
			rl.RecordJournal(journal)
			err = rl.Close(rr)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRecoveryRefusesDamagedEvidence: the one-pass restart keeps every
// check. A settle payload that its journal does not reproduce, a journal
// that does not reproduce its settle, a bid whose signature does not
// verify, and an artifact the close record does not commit to each refuse
// recovery, while the undamaged ledger recovers.
func TestRecoveryRefusesDamagedEvidence(t *testing.T) {
	cases := []struct {
		name       string
		sink       func(*ledger.RoundLog) protocol.EvidenceSink
		closeRound closeFunc
		want       string // in the error; empty: recovery succeeds
	}{
		{name: "intact"},
		{
			name: "tampered-settle",
			closeRound: func(_ *ledger.Store, rl *ledger.RoundLog, rr wire.RoundResult, journal []wire.JournalEntry) error {
				rr.Outlay += 1
				rl.RecordJournal(journal)
				return rl.Close(rr)
			},
			want: "journal does not reproduce the settle",
		},
		{
			name: "tampered-journal",
			closeRound: func(_ *ledger.Store, rl *ledger.RoundLog, rr wire.RoundResult, journal []wire.JournalEntry) error {
				journal[0].Amount *= 2 // a mechanism payment: the outlay moves
				rl.RecordJournal(journal)
				return rl.Close(rr)
			},
			want: "journal does not reproduce the settle",
		},
		{
			name: "bad-signature",
			sink: func(rl *ledger.RoundLog) protocol.EvidenceSink { return badSigSink{rl} },
			want: "bad-artifact",
		},
		{
			name: "evidence-gap",
			closeRound: func(st *ledger.Store, rl *ledger.RoundLog, rr wire.RoundResult, journal []wire.JournalEntry) error {
				gens := st.Session(1).Gens // the open generations: round 2's
				gv := gens[len(gens)-1]
				forged := sign.NewSigner(1, 13).Sign([]byte("uncommitted bid"))
				if _, _, err := st.Put(ledger.Record{
					Kind: ledger.KindBid, Session: 1, Gen: rl.Gen(), Slot: 99,
					Parents: []ledger.Hash{gv.Open},
					Payload: wire.AppendBid(nil, wire.Bid{From: 1, Signed: []sign.Signed{forged}}),
				}); err != nil {
					return err
				}
				rl.RecordJournal(journal)
				return rl.Close(rr)
			},
			want: "evidence-gap",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := damagedLedger(t, tc.sink, tc.closeRound)
			st := deferLedger(t, dir)
			defer st.Close()
			s, err := server.Listen(server.Config{Ledger: st, Logf: t.Logf})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("recovery of an intact ledger: %v", err)
				}
				shutdownServer(t, s)
				return
			}
			if err == nil {
				shutdownServer(t, s)
				t.Fatal("recovery accepted a damaged ledger")
			}
			if !strings.Contains(err.Error(), "recover ledger session 1:") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want session 1 refused for %q, got %v", tc.want, err)
			}
		})
	}
}

// TestRecoveryRefusesForkAfterClose: a conflicting record appended after
// its generation's close record is a fork challenger the scan meets only
// once the generation has been handed over. Recovery refuses the ledger
// for it, and an audit flags it as both a fork and a record after the
// close.
func TestRecoveryRefusesForkAfterClose(t *testing.T) {
	dir := damagedLedger(t, nil, nil)
	st := openLedger(t, dir)
	gv := st.Session(1).Gens[0]
	forged := sign.NewSigner(1, 13).Sign([]byte("second, different bid"))
	if _, _, err := st.Put(ledger.Record{
		Kind: ledger.KindBid, Session: 1, Gen: 1, Slot: 1,
		Parents: []ledger.Hash{gv.Open},
		Payload: wire.AppendBid(nil, wire.Bid{From: 1, Signed: []sign.Signed{forged}}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rst := deferLedger(t, dir)
	s, err := server.Listen(server.Config{Ledger: rst, Logf: t.Logf})
	rst.Close()
	if err == nil {
		shutdownServer(t, s)
		t.Fatal("recovery accepted a fork challenger appended after the close")
	}
	if !strings.Contains(err.Error(), "recover ledger session 1:") || !strings.Contains(err.Error(), "after-close") {
		t.Fatalf("want session 1 refused for a record after the close, got %v", err)
	}

	audit := openLedger(t, dir)
	defer audit.Close()
	rep, err := server.AuditLedger(audit, server.AuditOptions{Strict: true, MaxTheoremCells: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, v := range rep.Violations() {
		flagged[v.Checker] = true
	}
	if !flagged["ledger-fork"] || !flagged["ledger-structure"] {
		t.Fatalf("audit violations %+v: want a ledger-fork and a ledger-structure verdict", rep.Violations())
	}
}

// TestRecoveryTrustsConsistentRewrite is the trade recovery makes by
// applying journals instead of re-running rounds. Round 2's journal and
// settle are rewritten together before they are hashed, so that one of
// P_1's payments goes to P_2 in both while the outlay and conservation
// stay as they were: recovery accepts the pair, and only the offline audit,
// which re-executes every round, flags it.
func TestRecoveryTrustsConsistentRewrite(t *testing.T) {
	moved := false
	dir := damagedLedger(t, nil, func(_ *ledger.Store, rl *ledger.RoundLog, rr wire.RoundResult, journal []wire.JournalEntry) error {
		for i, e := range journal {
			if e.From == payment.Mechanism && e.To == 1 && e.Amount > 0 {
				journal[i].To = 2
				rr.Utilities[1] -= e.Amount
				rr.Utilities[2] += e.Amount
				moved = true
				break
			}
		}
		rl.RecordJournal(journal)
		return rl.Close(rr)
	})
	if !moved {
		t.Fatal("round 2 pays P_1 nothing to move")
	}
	st := deferLedger(t, dir)
	s, err := server.Listen(server.Config{Ledger: st, Logf: t.Logf})
	if err != nil {
		st.Close()
		t.Fatalf("recovery refused a consistent rewrite: %v", err)
	}
	if !s.TenantLedgerNetZero("damaged", 1e-6) {
		t.Error("the tenant book does not conserve after the rewritten journal")
	}
	shutdownServer(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	audit := openLedger(t, dir)
	defer audit.Close()
	rep, err := server.AuditLedger(audit, server.AuditOptions{Strict: true, MaxTheoremCells: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var diverged []string
	for _, v := range rep.Violations() {
		if v.Violated == "replay-divergence" {
			diverged = append(diverged, v.Detail)
		} else {
			t.Errorf("unexpected violation: %s", v)
		}
	}
	if len(diverged) != 1 || !strings.Contains(diverged[0], "gen 2") {
		t.Fatalf("want one replay-divergence, on gen 2; got %q", diverged)
	}
}
