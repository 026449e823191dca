package server_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"testing"

	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/wire"
)

// recoveryBytesRe matches the record count and bytes of a recovery line.
var recoveryBytesRe = regexp.MustCompile(`recovery: \d+ records \(\d+(\.\d+)? [kMGT]?B\)`)

// TestRecoverV2Ledger: a ledger written in the DLSLEDG2 format (two m=4
// tenants, settled and journaled rounds, a void, a shedder's fine, and a
// tail seeded by its generation whose Phase III load acknowledgements are
// on disk) recovers under this code with no replay: every settled round's
// journal is applied, and the tail resumes without a fork, storing its
// bills and load acks literally, as it began. A round served
// afterwards is journaled too, so the next restart applies every journal
// and replays nothing. Every settle payload, the resumed tail's included,
// matches the digest table written with the fixture, and a strict audit
// finds no violation.
func TestRecoverV2Ledger(t *testing.T) {
	dir, digests := fixtureLedger(t, "v2-ledger", "DLSLEDG2")
	alpha := wire.Hello{Tenant: "alpha", Size: 5, Seed: 7}

	log := &recoveryLog{t: t}
	st := deferLedger(t, dir)
	s, err := server.Listen(server.Config{Ledger: st, Logf: log.logf})
	if err != nil {
		t.Fatalf("recover the v2 ledger: %v", err)
	}
	if j, r, replay := log.counts(); j != 5 || r != 0 || replay != "0s" {
		t.Fatalf("recovery applied %d journals and replayed %d legacy rounds in %s, want 5, 0 and 0s", j, r, replay)
	}
	if !log.has(recoveryBytesRe) {
		t.Fatal("the recovery line does not report the bytes the scan read")
	}
	if forks := st.Forks(); len(forks) != 0 {
		t.Fatalf("the resumed tail forked the evidence: %v", forks)
	}
	c, err := server.Dial(s.Addr().String(), alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Ack().Pooled {
		t.Fatal("the recovered session is not in the pool")
	}
	rq := servertest.RoundFor(servertest.ChainNet(4, alpha.Seed), 5, alpha.Seed*100+5)
	rq.LambdaUnit = 1.0 / 256
	if _, err := c.Round(rq); err != nil {
		t.Fatalf("round after recovery: %v", err)
	}
	c.Close()
	shutdownServer(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	log = &recoveryLog{t: t}
	st = deferLedger(t, dir)
	s, err = server.Listen(server.Config{Ledger: st, Logf: log.logf})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if j, r, replay := log.counts(); j != 7 || r != 0 || replay != "0s" {
		t.Fatalf("second restart applied %d journals and replayed %d legacy rounds in %s, want 7, 0 and 0s", j, r, replay)
	}
	shutdownServer(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	audit := openLedger(t, dir)
	defer audit.Close()
	if forks := audit.Forks(); len(forks) != 0 {
		t.Fatalf("forks: %v", forks)
	}
	for _, sv := range audit.Sessions() {
		for _, gv := range sv.Gens {
			if gv.Legacy {
				t.Errorf("session %d gen %d: legacy", sv.ID, gv.Gen)
			}
			// The fixture's generations, the resumed tail's included, stay
			// literal; the one served afterwards is normalized.
			served := sv.ID == 1 && gv.Gen == 5
			if gv.Literal == served {
				t.Errorf("session %d gen %d: literal %v", sv.ID, gv.Gen, gv.Literal)
			}
			stored := 0
			for _, h := range gv.Artifacts {
				rec, err := audit.Get(h)
				if err != nil {
					t.Fatal(err)
				}
				if typ, _ := wire.Peek(rec.Payload); typ == wire.TypeStoredBill || typ == wire.TypeStoredLoad {
					stored++
				}
			}
			if (stored > 0) != served {
				t.Errorf("session %d gen %d: %d bills and load acks stored with references", sv.ID, gv.Gen, stored)
			}
			if gv.Settle.IsZero() {
				continue
			}
			if gv.Journal.IsZero() {
				t.Errorf("session %d gen %d settled without a journal", sv.ID, gv.Gen)
			}
			key := fmt.Sprintf("%d %d", sv.ID, gv.Gen)
			want, ok := digests[key]
			if !ok {
				if sv.ID == 1 && gv.Gen == 5 {
					continue // served after the recovery
				}
				t.Fatalf("session %d gen %d settled, but the digest table has no entry", sv.ID, gv.Gen)
			}
			rec, err := audit.Get(gv.Settle)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(rec.Payload)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("session %d gen %d settle digest %s, want %s", sv.ID, gv.Gen, got, want)
			}
			delete(digests, key)
		}
	}
	if len(digests) != 0 {
		t.Fatalf("digests with no settle record: %v", digests)
	}
	if sv := audit.Session(2); sv == nil || len(sv.Gens) != 3 || sv.Gens[2].Void.IsZero() {
		t.Fatal("the fixture's voided generation is missing")
	}
	rep, err := server.AuditLedger(audit, server.AuditOptions{Strict: true, MaxTheoremCells: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}
