package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dlsmech/internal/device"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
	"dlsmech/internal/xrand"
)

// corpusDir is the committed go-fuzz seed corpus for the wire package's
// FuzzWireRoundTrip, relative to this package's directory. wire cannot
// import ledger, so the seeds that prove the fuzzer covers every artifact
// the ledger actually persists are generated here and committed there.
const corpusDir = "../wire/testdata/fuzz/FuzzWireRoundTrip"

// kindNames names each record kind in corpus file names.
var kindNames = map[Kind]string{
	KindSession:   "session",
	KindRound:     "round",
	KindBid:       "bid",
	KindAlloc:     "alloc",
	KindLoadAck:   "loadack",
	KindGrievance: "grievance",
	KindBill:      "bill",
	KindFine:      "fine",
	KindSettle:    "settle",
	KindVoid:      "void",
	KindJournal:   "journal",
}

// buildCorpusLedger records a deterministic session that persists every
// record kind: a settled round carrying bids, allocations, load acks (the
// first literal, the next stored as the tail of its sender's), a
// grievance, bills (a stored one and the root's, literal), a detection
// fine and a journal, then a second round that is voided.
func buildCorpusLedger(t *testing.T) (*Store, *MemBackend) {
	t.Helper()
	be := NewMemBackend()
	st, err := Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "corpus", Size: 4, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	rl := recordRound(t, sl, 1, 4)
	iss, err := device.NewIssuer(1.0/64, xrand.New(testSeed))
	if err != nil {
		t.Fatal(err)
	}
	att, err := iss.Mint(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s2 := sign.NewSigner(2, testSeed)
	meter := device.NewMeter(s2, 2)
	reading, err := meter.Record(1.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rl.RecordGrievance(wire.Grievance{
		Reporter: 2,
		G: wire.Alloc{
			To:       2,
			PrevLoad: sign.NewSigner(1, testSeed).Sign([]byte("prev-load")),
		},
		Att:   att,
		Meter: reading,
	})
	rl.RecordBill(wire.Bill{From: 0, Compensation: 0.75, Proof: wire.Proof{Att: att}})
	rl.RecordJournal([]wire.JournalEntry{{From: -1, To: 1, Amount: 2.5}, {From: 2, To: -1, Amount: 50}, {From: -1, To: 1, Amount: 25}})
	settleRound(t, rl, 1)
	recordRound(t, sl, 2, 4).Void("round_failed", "corpus: voided tail round")
	if err := rl.Err(); err != nil {
		t.Fatal(err)
	}
	return st, be
}

// corpusEntries renders the seed set: the full envelope frame of the
// first record of each kind, plus that record's payload — itself a wire
// frame for every artifact kind — so the fuzzer starts from genuinely
// persisted bytes for both the envelope codec and each nested codec. A
// bill or load ack stored with references is a kind of its own here
// ("bill-stored", "loadack-stored"), so both layouts are seeded.
func corpusEntries(t *testing.T, st *Store, be *MemBackend) map[string][]byte {
	t.Helper()
	entries := make(map[string][]byte)
	err := be.Scan(func(h Hash, frame []byte) error {
		rec, err := decodeRecord(frame)
		if err != nil {
			return err
		}
		name, ok := kindNames[rec.Kind]
		if !ok {
			return fmt.Errorf("record kind %d has no corpus name", rec.Kind)
		}
		if t, err := wire.Peek(rec.Payload); err == nil && (t == wire.TypeStoredBill || t == wire.TypeStoredLoad) {
			name += "-stored"
		}
		if _, ok := entries["ledger-"+name]; ok {
			return nil
		}
		entries["ledger-"+name] = append([]byte(nil), frame...)
		if rec.Kind != KindSession {
			// Session payloads are Hello frames already seeded by the wire
			// tests; everything else is seeded from the persisted bytes.
			entries["ledger-"+name+"-payload"] = append([]byte(nil), rec.Payload...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*(len(kindNames)+2) - 1; len(entries) != want {
		t.Fatalf("corpus covers %d entries, want %d (one per kind and stored layout, plus payloads)", len(entries), want)
	}
	return entries
}

// corpusFile renders one seed in the go test fuzz corpus format.
func corpusFile(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

// TestWireFuzzCorpusCoversLedgerArtifacts pins the committed seed corpus
// of wire.FuzzWireRoundTrip to the artifacts a real recorded session
// persists: every record kind's envelope frame and its payload frame must
// be present byte for byte. Run with UPDATE_WIRE_FUZZ_CORPUS=1 to rewrite
// the committed files after a deliberate format change.
func TestWireFuzzCorpusCoversLedgerArtifacts(t *testing.T) {
	st, be := buildCorpusLedger(t)
	entries := corpusEntries(t, st, be)

	if os.Getenv("UPDATE_WIRE_FUZZ_CORPUS") != "" {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range entries {
			if err := os.WriteFile(filepath.Join(corpusDir, name), corpusFile(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d corpus seeds in %s", len(entries), corpusDir)
		return
	}
	for name, data := range entries {
		got, err := os.ReadFile(filepath.Join(corpusDir, name))
		if err != nil {
			t.Fatalf("corpus seed missing (rerun with UPDATE_WIRE_FUZZ_CORPUS=1): %v", err)
		}
		if want := corpusFile(data); string(got) != string(want) {
			t.Errorf("corpus seed %s is stale (rerun with UPDATE_WIRE_FUZZ_CORPUS=1)", name)
		}
	}
}
