package server_test

import (
	"strings"
	"testing"

	"dlsmech/internal/ledger"
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

// damagedLedger writes two m=3 rounds of one session to a fresh ledger
// through a whole store, as the daemon would, except for round 2: sink
// wraps its round log and closeRound settles it.
func damagedLedger(t *testing.T, sink func(*ledger.RoundLog) protocol.EvidenceSink,
	closeRound func(st *ledger.Store, rl *ledger.RoundLog, rr wire.RoundResult) error) string {
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
		params.Evidence = rl
		if seq == 2 && sink != nil {
			params.Evidence = sink(rl)
		}
		res, err := sess.Run(params)
		if err != nil {
			t.Fatal(err)
		}
		rr := server.ResultToWire(rq.Seq, res)
		if seq == 2 && closeRound != nil {
			err = closeRound(st, rl, rr)
		} else {
			err = rl.Close(rr)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRecoveryRefusesDamagedEvidence: the one-pass restart keeps every
// check. A settle payload that the replay does not reproduce, a bid whose
// signature does not verify, and an artifact the close record does not
// commit to each refuse recovery, while the undamaged ledger recovers.
func TestRecoveryRefusesDamagedEvidence(t *testing.T) {
	cases := []struct {
		name       string
		sink       func(*ledger.RoundLog) protocol.EvidenceSink
		closeRound func(*ledger.Store, *ledger.RoundLog, wire.RoundResult) error
		want       string // in the error; empty: recovery succeeds
	}{
		{name: "intact"},
		{
			name: "tampered-settle",
			closeRound: func(_ *ledger.Store, rl *ledger.RoundLog, rr wire.RoundResult) error {
				rr.Outlay += 1
				return rl.Close(rr)
			},
			want: "replay diverges",
		},
		{
			name: "bad-signature",
			sink: func(rl *ledger.RoundLog) protocol.EvidenceSink { return badSigSink{rl} },
			want: "bad-artifact",
		},
		{
			name: "evidence-gap",
			closeRound: func(st *ledger.Store, rl *ledger.RoundLog, rr wire.RoundResult) error {
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
