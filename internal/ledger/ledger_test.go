package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dlsmech/internal/obs"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

const testSeed = uint64(7)

// recordRound drives one synthetic generation through a RoundLog using
// authentic signatures from the (size, seed) key universe, the same
// derivation VerifySession rebuilds its PKI from.
func recordRound(t *testing.T, sl *SessionLog, seq uint64, size int) *RoundLog {
	t.Helper()
	rl, err := sl.OpenRound(wire.Round{Seq: seq, Seed: testSeed, W: []float64{1, 2, 3}, Fine: 50, AuditProb: 0.25})
	if err != nil {
		t.Fatalf("OpenRound: %v", err)
	}
	signers := make([]*sign.Signer, size)
	for i := range signers {
		signers[i] = sign.NewSigner(i, testSeed)
	}
	for i := 1; i < size; i++ {
		rl.RecordBid(i, signers[i].Sign([]byte{byte(seq), byte(i)}))
	}
	for i := 1; i < size; i++ {
		rl.RecordAlloc(wire.Alloc{
			To:        i,
			PrevLoad:  signers[0].Sign([]byte("prev-load")),
			Load:      signers[i-1].Sign([]byte("load")),
			PrevEquiv: signers[0].Sign([]byte("prev-equiv")),
			PrevBid:   signers[i-1].Sign([]byte("prev-bid")),
			EchoEquiv: signers[i-1].Sign([]byte("echo")),
		})
		rl.RecordLoadAck(i, wire.Load{Amount: float64(i)})
	}
	rl.RecordBill(wire.Bill{
		From:         1,
		Compensation: 2.5,
		Proof: wire.Proof{
			OwnBid: signers[1].Sign([]byte("own-bid")),
		},
	})
	if err := rl.Err(); err != nil {
		t.Fatalf("record: %v", err)
	}
	return rl
}

func settleRound(t *testing.T, rl *RoundLog, seq uint64) {
	t.Helper()
	rr := wire.RoundResult{
		Seq: seq, Completed: true, NetZero: true, TermReason: "complete",
		Bids:      []float64{1, 2, 3},
		Utilities: []float64{0.5, 0.25, 0.125},
		Detections: []wire.DetectionRec{
			{Violation: "test-violation", Offender: 2, Reporter: 1, Fine: 50, Reward: 25},
		},
	}
	if err := rl.Close(rr); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundTripAndVerifyMem(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, NewMetrics(obs.NewRegistry(), "test"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "t0", Size: 4, Seed: testSeed})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		settleRound(t, recordRound(t, sl, seq, 4), seq)
	}
	// The serving store forgot each generation as it closed; a store opened
	// over the same backend sees them all.
	st2 := reopenMem(t, be)
	sv := st2.Session(sl.ID())
	if sv == nil || len(sv.Gens) != 3 {
		t.Fatalf("want 3 generations, got %+v", sv)
	}
	for _, gv := range sv.Gens {
		if !gv.Closed() || gv.Settle.IsZero() {
			t.Fatalf("gen %d not settled: %+v", gv.Gen, gv)
		}
		// 3 bids + 3 allocs + 3 load-acks + 1 bill + 1 fine
		if len(gv.Artifacts) != 11 {
			t.Fatalf("gen %d: want 11 artifacts, got %d", gv.Gen, len(gv.Artifacts))
		}
		rec, err := st2.Get(gv.Settle)
		if err != nil {
			t.Fatalf("get settle: %v", err)
		}
		rr, _, err := wire.DecodeRoundResult(rec.Payload)
		if err != nil || rr.Seq != gv.Round.Seq {
			t.Fatalf("settle payload: seq %d err %v", rr.Seq, err)
		}
	}
	if got := st2.VerifySession(sl.ID()); len(got) != 0 {
		t.Fatalf("VerifySession: unexpected issues %v", got)
	}
	for _, st := range []*Store{st, st2} {
		if f := st.Forks(); len(f) != 0 {
			t.Fatalf("unexpected forks %v", f)
		}
		if is := st.Issues(); len(is) != 0 {
			t.Fatalf("unexpected issues %v", is)
		}
	}
}

// reopenMem opens a second store over be, which sees the whole DAG.
func reopenMem(t *testing.T, be *MemBackend) *Store {
	t.Helper()
	st, err := Open(be, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return st
}

// teeBackend records every frame appended through it.
type teeBackend struct {
	Backend
	frames map[Hash][]byte
}

func (b *teeBackend) Put(h Hash, frame []byte) error {
	if err := b.Backend.Put(h, frame); err != nil {
		return err
	}
	if _, ok := b.frames[h]; !ok {
		b.frames[h] = append([]byte(nil), frame...)
	}
	return nil
}

func TestFileBackendReopenBitIdentical(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenFile(dir, 1<<12) // small segments: force rolls
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	// The serving store forgets each generation as it closes, and the
	// backend with it, so the appended frames are recorded as they pass.
	tee := &teeBackend{Backend: be, frames: make(map[Hash][]byte)}
	st, err := Open(tee, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "t0", Size: 4, Seed: testSeed})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	var settles []Hash
	for seq := uint64(1); seq <= 8; seq++ {
		rl := recordRound(t, sl, seq, 4)
		settleRound(t, rl, seq)
		settles = append(settles, st.Session(sl.ID()).Tip) // the settle just appended
	}
	frames := tee.frames
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(segs))
	}

	be2, err := OpenFile(dir, 1<<12)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer be2.Close()
	st2, err := Open(be2, nil)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	if is := st2.Issues(); len(is) != 0 {
		t.Fatalf("reopen issues: %v", is)
	}
	if be2.Len() != len(frames) {
		t.Fatalf("reopen lost records: %d vs %d", be2.Len(), len(frames))
	}
	for h, want := range frames {
		got, err := st2.GetFrame(h)
		if err != nil {
			t.Fatalf("GetFrame(%s): %v", h.Short(), err)
		}
		if string(got) != string(want) {
			t.Fatalf("frame %s not bit-identical after reopen", h.Short())
		}
		if hashFrame(got) != h {
			t.Fatalf("frame %s address mismatch", h.Short())
		}
	}
	sv := st2.Session(1)
	if sv == nil || len(sv.Gens) != 8 {
		t.Fatalf("reopen: session view damaged: %+v", sv)
	}
	for i, gv := range sv.Gens {
		if gv.Settle != settles[i] {
			t.Fatalf("gen %d settle hash changed across reopen", gv.Gen)
		}
	}
	if got := st2.VerifySession(1); len(got) != 0 {
		t.Fatalf("VerifySession after reopen: %v", got)
	}
}

func TestPutIdempotentAndUnknownParent(t *testing.T) {
	st, err := Open(NewMemBackend(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h1, known, err := st.Put(Record{Kind: KindSession, Session: 1, Payload: wire.AppendHello(nil, wire.Hello{Size: 2, Seed: 1})})
	if err != nil || known {
		t.Fatalf("first Put: known=%v err=%v", known, err)
	}
	h2, known, err := st.Put(Record{Kind: KindSession, Session: 1, Payload: wire.AppendHello(nil, wire.Hello{Size: 2, Seed: 1})})
	if err != nil || !known || h1 != h2 {
		t.Fatalf("idempotent Put: known=%v err=%v h1=%s h2=%s", known, err, h1.Short(), h2.Short())
	}
	var bogus Hash
	bogus[0] = 0xff
	if _, _, err := st.Put(Record{Kind: KindRound, Session: 1, Gen: 1, Parents: []Hash{bogus}}); err == nil {
		t.Fatal("Put with unknown parent must fail")
	}
}

func TestForkDetection(t *testing.T) {
	st, err := Open(NewMemBackend(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "t", Size: 3, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := sl.OpenRound(wire.Round{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1 := sign.NewSigner(1, testSeed)
	// The same commitment twice is a dedup, not a fork.
	rl.RecordBid(1, s1.Sign([]byte("w=2.0")))
	rl.RecordBid(1, s1.Sign([]byte("w=2.0")))
	if f := st.Forks(); len(f) != 0 {
		t.Fatalf("duplicate submission must not fork: %v", f)
	}
	// A different commitment in the same (session, gen, slot, kind) cell is
	// a double-submission: a fork, with both branches retained.
	rl.RecordBid(1, s1.Sign([]byte("w=9.9")))
	forks := st.Forks()
	if len(forks) != 1 {
		t.Fatalf("want 1 fork, got %v", forks)
	}
	f := forks[0]
	if f.Kind != KindBid || f.Slot != 1 || f.A == f.B {
		t.Fatalf("bad fork record: %+v", f)
	}
	for _, h := range []Hash{f.A, f.B} {
		if _, err := st.Get(h); err != nil {
			t.Fatalf("fork branch %s not retained: %v", h.Short(), err)
		}
	}
	// Only the first branch is wired into the generation view.
	gv := st.Session(sl.ID()).Gens[0]
	if len(gv.Artifacts) != 1 || gv.Artifacts[0] != f.A {
		t.Fatalf("wired artifacts %v, want just %s", gv.Artifacts, f.A.Short())
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	for _, cut := range []string{"short-length", "short-frame", "bad-digest"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			be, err := OpenFile(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			tee := &teeBackend{Backend: be, frames: make(map[Hash][]byte)}
			st, err := Open(tee, nil)
			if err != nil {
				t.Fatal(err)
			}
			sl, err := st.OpenSession(wire.Hello{Tenant: "t", Size: 4, Seed: testSeed})
			if err != nil {
				t.Fatal(err)
			}
			settleRound(t, recordRound(t, sl, 1, 4), 1)
			nRecords := len(tee.frames)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			seg := filepath.Join(dir, "00000000.seg")
			f, err := os.OpenFile(seg, os.O_RDWR|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			frame := []byte("not a real frame, just crash litter")
			switch cut {
			case "short-length":
				f.Write([]byte{0x55, 0x02}) // half a length prefix
			case "short-frame":
				var lb [4]byte
				binary.LittleEndian.PutUint32(lb[:], uint32(len(frame)+100))
				f.Write(lb[:])
				f.Write(frame)
			case "bad-digest":
				// A complete-looking record whose digest is wrong, ending
				// exactly at EOF: the un-fsynced-write footprint.
				var lb [4]byte
				binary.LittleEndian.PutUint32(lb[:], uint32(len(frame)))
				f.Write(lb[:])
				f.Write(frame)
				f.Write(make([]byte, 32))
			}
			f.Close()

			be2, err := OpenFile(dir, 0)
			if err != nil {
				t.Fatalf("reopen after torn tail: %v", err)
			}
			if be2.Len() != nRecords {
				t.Fatalf("want %d records after truncation, got %d", nRecords, be2.Len())
			}
			st2, err := Open(be2, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The log must accept appends again at the cut.
			sl2, err := st2.ResumeSession(1)
			if err != nil {
				t.Fatal(err)
			}
			settleRound(t, recordRound(t, sl2, 2, 4), 2)
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
			st3, err := OpenDir(dir, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer st3.Close()
			if sv := st3.Session(1); sv == nil || len(sv.Gens) != 2 {
				t.Fatalf("want 2 generations after the append, got %+v", sv)
			}
			if got := st3.VerifySession(1); len(got) != 0 {
				t.Fatalf("VerifySession: %v", got)
			}
		})
	}
}

// TestShortFinalSegmentIsTornRoll: a crash between a roll's file create and
// its magic write leaves a final segment of 0..7 bytes, a prefix of the
// magic. The open must finish the roll and keep every earlier record; a
// short segment that is not a prefix of the magic, or not the last one,
// is damage.
func TestShortFinalSegmentIsTornRoll(t *testing.T) {
	// writeLog settles two rounds into segment 0 and returns its record count.
	writeLog := func(t *testing.T, dir string) int {
		t.Helper()
		be, err := OpenFile(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		tee := &teeBackend{Backend: be, frames: make(map[Hash][]byte)}
		st, err := Open(tee, nil)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := st.OpenSession(wire.Hello{Tenant: "t", Size: 4, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 2; seq++ {
			settleRound(t, recordRound(t, sl, seq, 4), seq)
		}
		n := len(tee.frames)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	seg0 := func(dir string) string { return filepath.Join(dir, "00000000.seg") }
	seg1 := func(dir string) string { return filepath.Join(dir, "00000001.seg") }

	for name, litter := range map[string][]byte{"empty": nil, "partial-magic": segMagic[:3]} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			nRecords := writeLog(t, dir)
			if err := os.WriteFile(seg1(dir), litter, 0o644); err != nil {
				t.Fatal(err)
			}
			be, err := OpenFile(dir, 0)
			if err != nil {
				t.Fatalf("reopen after torn roll: %v", err)
			}
			if be.Len() != nRecords {
				t.Fatalf("want %d records, got %d", nRecords, be.Len())
			}
			st, err := Open(be, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.VerifySession(1); len(got) != 0 {
				t.Fatalf("VerifySession: %v", got)
			}
			sl, err := st.ResumeSession(1)
			if err != nil {
				t.Fatal(err)
			}
			settleRound(t, recordRound(t, sl, 3, 4), 3)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(seg1(dir))
			if err != nil {
				t.Fatal(err)
			}
			if len(data) <= len(segMagic) || string(data[:len(segMagic)]) != string(segMagic) {
				t.Fatalf("appends did not land behind a rewritten magic: %d bytes %q", len(data), data[:min(len(data), len(segMagic))])
			}
			be2, err := OpenFile(dir, 0)
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			defer be2.Close()
			st2, err := Open(be2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sv := st2.Session(1); sv == nil || len(sv.Gens) != 3 {
				t.Fatalf("want 3 generations after the append, got %+v", sv)
			}
			if got := st2.VerifySession(1); len(got) != 0 {
				t.Fatalf("VerifySession after append: %v", got)
			}
		})
	}

	t.Run("not-a-magic-prefix", func(t *testing.T) {
		dir := t.TempDir()
		writeLog(t, dir)
		if err := os.WriteFile(seg1(dir), []byte("XYZ"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(dir, 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("short-interior-segment", func(t *testing.T) {
		dir := t.TempDir()
		writeLog(t, dir)
		data, err := os.ReadFile(seg0(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg1(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg0(dir), 3); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(dir, 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
}

func TestInteriorCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenFile(dir, 1<<12) // force at least two segments
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "t", Size: 4, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		settleRound(t, recordRound(t, sl, seq, 4), seq)
	}
	st.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 2 {
		t.Fatalf("test needs multiple segments, got %d", len(segs))
	}
	// Truncate the FIRST segment: an append-only writer can never tear an
	// interior file, so this is damage, not a crash footprint.
	info, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], info.Size()-7); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir, 1<<12); err == nil {
		t.Fatal("interior truncation must fail the open")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestForgedRecordDetected(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "t", Size: 4, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	rl := recordRound(t, sl, 1, 4)
	target := st.Session(sl.ID()).Gens[0].Artifacts[0]
	settleRound(t, rl, 1)
	st.Close()

	seg := filepath.Join(dir, "00000000.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the target record: scan the segment layout for its digest.
	off := len(segMagic)
	var found bool
	for off < len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		frame := data[off+4 : off+4+n]
		digest := data[off+4+n : off+4+n+32]
		var h Hash
		copy(h[:], digest)
		if h == target {
			// Flip one payload byte in place.
			frame[len(frame)-1] ^= 0x01

			t.Run("inconsistent-digest", func(t *testing.T) {
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := OpenFile(dir, 0); err == nil {
					t.Fatal("forged frame with stale digest must fail the open")
				}
			})
			t.Run("recomputed-digest", func(t *testing.T) {
				// A cleverer forger recomputes the digest. The content
				// address changes, so the settle record's parent commitment
				// breaks instead.
				fixed := sha256.Sum256(frame)
				copy(digest, fixed[:])
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
				be2, err := OpenFile(dir, 0)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				defer be2.Close()
				st2, err := Open(be2, nil)
				if err != nil {
					t.Fatalf("store open: %v", err)
				}
				issues := st2.Issues()
				verIssues := st2.VerifySession(1)
				if len(issues)+len(verIssues) == 0 {
					t.Fatal("forged record with recomputed digest must surface issues")
				}
			})
			found = true
			break
		}
		off += 4 + n + 32
	}
	if !found {
		t.Fatal("target record not found in segment")
	}
}

func TestVerifySessionCatchesBadSignature(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "t", Size: 5, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	rl := recordRound(t, sl, 1, 4)
	// A bid whose signature does not verify: signed under a foreign key
	// universe but claiming an in-session identity, at a slot with no prior
	// submission so it wires cleanly instead of forking.
	rogue := sign.NewSigner(4, testSeed+1).Sign([]byte("forged"))
	forged := rogue
	forged.SignerID = 4
	rl.RecordBid(4, forged)
	settleRound(t, rl, 1)
	issues := reopenMem(t, be).VerifySession(sl.ID())
	if len(issues) == 0 {
		t.Fatal("bad signature must be reported")
	}
	var hit bool
	for _, is := range issues {
		if is.Code == "bad-artifact" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("want a bad-artifact issue, got %v", issues)
	}
}

func TestVerifySessionEvidenceGap(t *testing.T) {
	st, err := Open(NewMemBackend(), nil)
	if err != nil {
		t.Fatal(err)
	}
	head, _, err := st.Put(Record{Kind: KindSession, Session: 1, Payload: wire.AppendHello(nil, wire.Hello{Size: 2, Seed: testSeed})})
	if err != nil {
		t.Fatal(err)
	}
	open, _, err := st.Put(Record{Kind: KindRound, Session: 1, Gen: 1, Parents: []Hash{head}, Payload: wire.AppendRound(nil, wire.Round{Seq: 1})})
	if err != nil {
		t.Fatal(err)
	}
	sg := sign.NewSigner(1, testSeed).Sign([]byte("bid"))
	if _, _, err := st.Put(Record{Kind: KindBid, Session: 1, Gen: 1, Slot: 1, Parents: []Hash{open},
		Payload: wire.AppendBid(nil, wire.Bid{From: 1, Signed: []sign.Signed{sg}})}); err != nil {
		t.Fatal(err)
	}
	// A settle that commits to the open only: the bid is evidence the close
	// record does not acknowledge.
	if _, _, err := st.Put(Record{Kind: KindSettle, Session: 1, Gen: 1, Parents: []Hash{open},
		Payload: wire.AppendRoundResult(nil, wire.RoundResult{Seq: 1, Completed: true})}); err != nil {
		t.Fatal(err)
	}
	issues := st.VerifySession(1)
	var gap bool
	for _, is := range issues {
		if is.Code == "evidence-gap" {
			gap = true
		}
	}
	if !gap {
		t.Fatalf("want an evidence-gap issue, got %v", issues)
	}
}

func TestVoidSealsEvidence(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "t", Size: 4, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	rl := recordRound(t, sl, 1, 4)
	if err := rl.Void("round_failed", "engine error"); err != nil {
		t.Fatalf("Void: %v", err)
	}
	st = reopenMem(t, be) // the serving store forgot the voided generation
	gv := st.Session(sl.ID()).Gens[0]
	if !gv.Closed() || gv.Void.IsZero() || !gv.Settle.IsZero() {
		t.Fatalf("void not wired: %+v", gv)
	}
	rec, err := st.Get(gv.Void)
	if err != nil {
		t.Fatal(err)
	}
	se, _, err := wire.DecodeSrvError(rec.Payload)
	if err != nil || se.Code != "round_failed" {
		t.Fatalf("void payload: %+v err %v", se, err)
	}
	if got := st.VerifySession(sl.ID()); len(got) != 0 {
		t.Fatalf("VerifySession: %v", got)
	}
}

func TestRoundAtResumeDedupsIntoPreload(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "t", Size: 4, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-round: artifacts recorded, no close.
	rl := recordRound(t, sl, 1, 4)
	_ = rl
	preCrash := len(st.Session(sl.ID()).Gens[0].Artifacts)

	// Reload the same backend, as recovery does, and resume the open round.
	st2, err := Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl2, err := st2.ResumeSession(1)
	if err != nil {
		t.Fatal(err)
	}
	rl2, err := sl2.RoundAt(1)
	if err != nil {
		t.Fatal(err)
	}
	// The deterministic re-run reproduces the same artifacts: every append
	// dedups into the preloaded set.
	rerun := recordRoundInto(t, rl2, 1, 4)
	_ = rerun
	if got := len(st2.Session(1).Gens[0].Artifacts); got != preCrash {
		t.Fatalf("re-run grew the artifact set: %d -> %d", preCrash, got)
	}
	settleRound(t, rl2, 1)
	st2 = reopenMem(t, be) // the serving store forgot the settled generation
	gv := st2.Session(1).Gens[0]
	if gv.Settle.IsZero() {
		t.Fatal("resumed round did not settle")
	}
	// The settle record commits to open + every artifact.
	rec, err := st2.Get(gv.Settle)
	if err != nil {
		t.Fatal(err)
	}
	// Parents: the open, the preloaded artifacts, plus the fine artifact
	// settleRound's detection minted at close.
	if len(rec.Parents) != preCrash+2 {
		t.Fatalf("settle parents %d, want %d", len(rec.Parents), preCrash+2)
	}
	if got := st2.VerifySession(1); len(got) != 0 {
		t.Fatalf("VerifySession: %v", got)
	}
}

// recordRoundInto replays recordRound's artifact set into an existing
// RoundLog (the recovery path has no OpenRound).
func recordRoundInto(t *testing.T, rl *RoundLog, seq uint64, size int) *RoundLog {
	t.Helper()
	signers := make([]*sign.Signer, size)
	for i := range signers {
		signers[i] = sign.NewSigner(i, testSeed)
	}
	for i := 1; i < size; i++ {
		rl.RecordBid(i, signers[i].Sign([]byte{byte(seq), byte(i)}))
	}
	for i := 1; i < size; i++ {
		rl.RecordAlloc(wire.Alloc{
			To:        i,
			PrevLoad:  signers[0].Sign([]byte("prev-load")),
			Load:      signers[i-1].Sign([]byte("load")),
			PrevEquiv: signers[0].Sign([]byte("prev-equiv")),
			PrevBid:   signers[i-1].Sign([]byte("prev-bid")),
			EchoEquiv: signers[i-1].Sign([]byte("echo")),
		})
		rl.RecordLoadAck(i, wire.Load{Amount: float64(i)})
	}
	rl.RecordBill(wire.Bill{
		From:         1,
		Compensation: 2.5,
		Proof: wire.Proof{
			OwnBid: signers[1].Sign([]byte("own-bid")),
		},
	})
	if err := rl.Err(); err != nil {
		t.Fatalf("record: %v", err)
	}
	return rl
}

// TestGroupCommitDeferredClose drives a pipelined window of rounds through
// CloseDeferred and covers them with one Sync — the stream consumer's group
// commit — then reopens the log from disk and checks every settle survived
// bit-identically and the session verifies clean.
func TestGroupCommitDeferredClose(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	st, err := Open(be, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "t0", Size: 4, Seed: testSeed})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	const batch = 4
	for seq := uint64(1); seq <= batch; seq++ {
		rl := recordRound(t, sl, seq, 4)
		rr := wire.RoundResult{
			Seq: seq, Completed: true, NetZero: true, TermReason: "complete",
			Bids:      []float64{1, 2, 3},
			Utilities: []float64{0.5, 0.25, 0.125},
		}
		if err := rl.CloseDeferred(rr); err != nil {
			t.Fatalf("CloseDeferred seq %d: %v", seq, err)
		}
	}
	if err := sl.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	id := sl.ID()
	if err := st.Close(); err != nil {
		t.Fatalf("Close store: %v", err)
	}

	be2, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	st2, err := Open(be2, nil)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	sv := st2.Session(id)
	if sv == nil || len(sv.Gens) != batch {
		t.Fatalf("want %d generations after reopen, got %+v", batch, sv)
	}
	for _, gv := range sv.Gens {
		if !gv.Closed() || gv.Settle.IsZero() {
			t.Fatalf("gen %d not settled after reopen", gv.Gen)
		}
		rec, err := st2.Get(gv.Settle)
		if err != nil {
			t.Fatalf("get settle gen %d: %v", gv.Gen, err)
		}
		rr, _, err := wire.DecodeRoundResult(rec.Payload)
		if err != nil || rr.Seq != gv.Round.Seq || !rr.Completed {
			t.Fatalf("settle payload gen %d: seq %d err %v", gv.Gen, rr.Seq, err)
		}
	}
	if got := st2.VerifySession(id); len(got) != 0 {
		t.Fatalf("VerifySession after reopen: %v", got)
	}
}

// TestRecordZeroAlloc: recording a bid, a load receipt or a bill into a warm
// RoundLog over a FileBackend makes no allocation per call, amortised over
// the map and slice growth that distinct records cause.
func TestRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the allocation contract")
	}
	be, err := OpenFile(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sl, err := st.OpenSession(wire.Hello{Tenant: "t0", Size: 4, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := sl.OpenRound(wire.Round{Seq: 1, Seed: testSeed, W: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	sg := sign.NewSigner(1, testSeed).Sign([]byte("bid"))
	bill := wire.Bill{Compensation: 2.5, Proof: wire.Proof{OwnBid: sg}}
	slot := 0 // a fresh slot per call: a repeated record would only dedup
	for _, c := range []struct {
		name   string
		record func()
	}{
		{"bid", func() { slot++; rl.RecordBid(slot, sg) }},
		{"load-ack", func() { slot++; rl.RecordLoadAck(slot, wire.Load{Amount: float64(slot)}) }},
		{"bill", func() { slot++; bill.From = slot; rl.RecordBill(bill) }},
	} {
		for i := 0; i < 100; i++ {
			c.record()
		}
		if allocs := testing.AllocsPerRun(2000, c.record); allocs != 0 {
			t.Errorf("Record %s: %v allocations per call, want 0", c.name, allocs)
		}
	}
	if err := rl.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRoundRacesClose: in a pipelined stream, rounds open while earlier
// ones close on another goroutine, and each close makes the store forget a
// generation and move the tip the next open is parented on. Every open
// must land, on the tip of its moment, and the log must reopen whole.
func TestOpenRoundRacesClose(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir, 1<<14, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "t", Size: 3, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2000
	opened := make(chan *RoundLog, 4)
	closed := make(chan error, 1)
	go func() {
		for rl := range opened {
			rl.RecordLoadAck(1, wire.Load{Amount: float64(rl.Gen())})
			if err := rl.CloseDeferred(wire.RoundResult{Seq: rl.Gen(), Completed: true}); err != nil {
				closed <- err
				return
			}
			if rl.Gen()%16 == 0 {
				if err := sl.Sync(); err != nil {
					closed <- err
					return
				}
			}
		}
		closed <- nil
	}()
	for seq := uint64(1); seq <= rounds; seq++ {
		rl, err := sl.OpenRound(wire.Round{Seq: seq})
		if err != nil {
			t.Fatalf("OpenRound %d: %v", seq, err)
		}
		opened <- rl
	}
	close(opened)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if records, openGens := st.Live(); records != 2 || openGens != 0 {
		t.Fatalf("after the last close the store holds %d records and %d open generations, want 2 and 0", records, openGens)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, 1<<14, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if is := re.Issues(); len(is) != 0 {
		t.Fatalf("reopen issues: %v", is)
	}
	sv := re.Session(sl.ID())
	if sv == nil || len(sv.Gens) != rounds {
		t.Fatalf("reopened session: %+v, want %d generations", sv, rounds)
	}
	for _, gv := range sv.Gens {
		if gv.Settle.IsZero() || len(gv.Artifacts) != 1 {
			t.Fatalf("gen %d: settle %s, %d artifacts", gv.Gen, gv.Settle.Short(), len(gv.Artifacts))
		}
	}
}

// TestOpenDirMatchesOpen: the fused open wires a multi-segment log with a
// fork and a record duplicated on disk exactly as Open over OpenFile does,
// and fails where OpenFile fails.
func TestOpenDirMatchesOpen(t *testing.T) {
	dir := t.TempDir()
	const segSize = 1 << 12
	be, err := OpenFile(dir, segSize)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := st.OpenSession(wire.Hello{Tenant: "t", Size: 4, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		settleRound(t, recordRound(t, sl, seq, 4), seq)
	}
	rl := recordRound(t, sl, 7, 4) // left open, with a fork in it
	rl.RecordBid(1, sign.NewSigner(1, testSeed).Sign([]byte("a second bid")))
	if len(st.Forks()) != 1 {
		t.Fatalf("want 1 fork, got %v", st.Forks())
	}
	dup := rawRecord(t, be, st.Session(sl.ID()).Head)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("want at least 3 segments, got %d", len(segs))
	}
	for _, seg := range []string{segs[1], segs[len(segs)-1]} {
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(dup); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	be1, err := OpenFile(dir, segSize)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := Open(be1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	st2, err := OpenDir(dir, segSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, c := range []struct {
		name string
		a, b any
	}{
		{"sessions", st1.Sessions(), st2.Sessions()},
		{"forks", st1.Forks(), st2.Forks()},
		{"issues", st1.Issues(), st2.Issues()},
		{"index", indexOrder(be1), indexOrder(st2.be.(*FileBackend))},
	} {
		if !reflect.DeepEqual(c.a, c.b) {
			t.Fatalf("%s differ:\nOpen:    %+v\nOpenDir: %+v", c.name, c.a, c.b)
		}
	}
	r1, o1 := st1.Live()
	r2, o2 := st2.Live()
	if r1 != r2 || o1 != o2 || o1 != 1 || len(st2.Forks()) != 1 {
		t.Fatalf("Live: Open %d/%d, OpenDir %d/%d; forks %v", r1, o1, r2, o2, st2.Forks())
	}

	// Interior damage fails both opens alike.
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-7); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, segSize, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenDir over a truncated sealed segment: %v, want ErrCorrupt", err)
	}
}
