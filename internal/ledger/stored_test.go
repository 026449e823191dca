package ledger_test

import (
	"strings"
	"testing"

	"dlsmech/internal/ledger"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/wire"
)

// billHoldSink records evidence like its round log but holds P_2's bill
// back, for the test to store in a form of its own.
type billHoldSink struct {
	*ledger.RoundLog
	held wire.Bill
}

func (s *billHoldSink) RecordBill(b wire.Bill) {
	if b.From == 2 {
		s.held = b
		return
	}
	s.RoundLog.RecordBill(b)
}

// forgedBillLedger runs one m=4 round as the daemon does, except that
// P_2's bill is stored with G as a reference whose named kind and slot
// forge sets, and whose parent is alloc(2); it returns the log reopened
// whole.
func forgedBillLedger(t *testing.T, forge func(*wire.LedgerRef)) *ledger.Store {
	t.Helper()
	be := ledger.NewMemBackend()
	st, err := ledger.Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := servertest.ChainNet(4, 17)
	hello := wire.Hello{Tenant: "forged", Size: net.Size(), Seed: 3}
	sl, err := st.OpenSession(hello)
	if err != nil {
		t.Fatal(err)
	}
	rq := servertest.RoundFor(net, 1, 101)
	rl, err := sl.OpenRound(rq)
	if err != nil {
		t.Fatal(err)
	}
	params, err := server.RoundParams(hello.Size, rq)
	if err != nil {
		t.Fatal(err)
	}
	sink := &billHoldSink{RoundLog: rl}
	params.Evidence, params.Gen = sink, rl.Gen()
	res, err := protocol.NewSession(hello.Size, hello.Seed).Run(params)
	if err != nil {
		t.Fatal(err)
	}
	gv := st.Session(sl.ID()).Gens[0]
	var alloc2 ledger.Hash
	for _, h := range gv.Artifacts {
		rec, err := st.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == ledger.KindAlloc && rec.Slot == 2 {
			alloc2 = h
		}
	}
	if alloc2.IsZero() || sink.held.From != 2 {
		t.Fatal("the round recorded no alloc(2) or no bill from P_2")
	}
	sb := wire.StoredBill{Bill: sink.held}
	sb.Refs[wire.BillG] = wire.LedgerRef{Kind: uint8(ledger.KindAlloc), Field: wire.RefAlloc, Slot: 2}
	forge(&sb.Refs[wire.BillG])
	if _, ok := rl.PutArtifact(ledger.KindBill, 2, []ledger.Hash{gv.Open, alloc2}, wire.AppendStoredBill(nil, &sb)); !ok {
		t.Fatal(rl.Err())
	}
	rl.RecordJournal(server.JournalToWire(res))
	if err := rl.Close(server.ResultToWire(rq.Seq, res)); err != nil {
		t.Fatal(err)
	}
	if st, err = ledger.Open(be, nil); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBillReferenceNamingWrongArtifact: a stored bill whose reference
// names another slot than its parent's, or a kind that cannot hold the
// section, is a bad-artifact issue of Generation.Verify and a violation of
// the audit; the bill referencing what its parent holds verifies clean.
func TestBillReferenceNamingWrongArtifact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(*wire.LedgerRef)
		want  string // in the issue; empty: none
	}{
		{name: "intact", forge: func(*wire.LedgerRef) {}},
		{name: "wrong-slot", forge: func(r *wire.LedgerRef) { r.Slot = 3 }, want: "is not that artifact"},
		{name: "wrong-kind", forge: func(r *wire.LedgerRef) { r.Kind = uint8(ledger.KindBid) }, want: "reference names a bid record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := forgedBillLedger(t, tc.forge)
			defer st.Close()
			issues := st.VerifySession(1)
			if tc.want == "" {
				if len(issues) > 0 {
					t.Fatalf("issues: %v", issues)
				}
			} else if len(issues) != 1 || issues[0].Code != "bad-artifact" || !strings.Contains(issues[0].Detail, tc.want) {
				t.Fatalf("issues %v, want one bad-artifact naming %q", issues, tc.want)
			}
			rep, err := server.AuditLedger(st, server.AuditOptions{Strict: true, MaxTheoremCells: 1})
			if err != nil {
				t.Fatal(err)
			}
			var flagged bool
			for _, v := range rep.Violations() {
				if tc.want == "" {
					t.Errorf("audit violation: %s", v)
				}
				flagged = flagged || strings.Contains(v.Detail, "bad-artifact")
			}
			if tc.want != "" && !flagged {
				t.Fatalf("the audit did not flag the bill: %v", rep.Violations())
			}
		})
	}
}
