package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"dlsmech/internal/device"
	"dlsmech/internal/sign"
)

func sampleSigned(id int, payload string) sign.Signed {
	s := sign.NewSigner(id, uint64(id)*977+13)
	return s.Sign([]byte(payload))
}

func sampleBid() Bid {
	return Bid{From: 3, Signed: []sign.Signed{
		sampleSigned(3, string(EncodeSlot(SlotEquivBid, 3, 1.75))),
		sampleSigned(3, string(EncodeSlot(SlotEquivBid, 3, 2.1875))),
	}}
}

func sampleAlloc() Alloc {
	return Alloc{
		To:        2,
		PrevLoad:  sampleSigned(0, string(EncodeSlot(SlotLoad, 1, 0.5))),
		Load:      sampleSigned(1, string(EncodeSlot(SlotLoad, 2, 0.25))),
		PrevEquiv: sampleSigned(0, string(EncodeSlot(SlotEquivBid, 1, 1.5))),
		PrevBid:   sampleSigned(1, string(EncodeSlot(SlotBid, 1, 2))),
		EchoEquiv: sampleSigned(1, string(EncodeSlot(SlotEquivBid, 2, 1.75))),
	}
}

func sampleLoad() Load {
	return Load{
		Amount:    0.375,
		Att:       device.Attestation{Blocks: []device.Block{7, 11, 1 << 60}},
		Corrupted: true,
	}
}

func sampleMeter() device.MeterReading {
	return device.MeterReading{Proc: 2, WTilde: 1.5, Load: 0.375, Msg: sampleSigned(0, "MTRpayload")}
}

func sampleBill() Bill {
	return Bill{
		From:         2,
		Compensation: 0.5625,
		Recompense:   0.125,
		Bonus:        0.03125,
		Solution:     1,
		Proof: Proof{
			G:       sampleAlloc(),
			SuccBid: sampleSigned(3, string(EncodeSlot(SlotEquivBid, 3, 1.75))),
			OwnBid:  sampleSigned(2, string(EncodeSlot(SlotBid, 2, 2.5))),
			Meter:   sampleMeter(),
			Att:     device.Attestation{Blocks: []device.Block{1, 2, 3}},
			HasSucc: true,
		},
	}
}

func sampleGrievance() Grievance {
	return Grievance{Reporter: 2, G: sampleAlloc(), Att: device.Attestation{Blocks: []device.Block{5}}, Meter: sampleMeter()}
}

func sampleLedgerRecord() LedgerRecord {
	var p1, p2 [HashSize]byte
	for i := range p1 {
		p1[i] = byte(i)
		p2[i] = byte(255 - i)
	}
	return LedgerRecord{
		Kind:    3, // bid
		Session: 7,
		Gen:     42,
		Slot:    2,
		Parents: [][HashSize]byte{p1, p2},
		Payload: AppendBid(nil, sampleBid()),
	}
}

func sampleDetection() DetectionRec {
	return DetectionRec{Violation: "overload", Offender: 1, Reporter: 2, Fine: 40, Reward: 0.5}
}

// encodeAny frames any of the five message types.
func encodeAny(t *testing.T, msg interface{}) []byte {
	t.Helper()
	switch m := msg.(type) {
	case Bid:
		return AppendBid(nil, m)
	case Alloc:
		return AppendAlloc(nil, m)
	case Load:
		return AppendLoad(nil, m)
	case Bill:
		return AppendBill(nil, m)
	case Grievance:
		return AppendGrievance(nil, m)
	case Hello:
		return AppendHello(nil, m)
	case HelloAck:
		return AppendHelloAck(nil, m)
	case Round:
		return AppendRound(nil, m)
	case RoundResult:
		return AppendRoundResult(nil, m)
	case SrvError:
		return AppendSrvError(nil, m)
	case Stream:
		return AppendStream(nil, m)
	case StreamEnd:
		return AppendStreamEnd(nil, m)
	case LedgerRecord:
		return AppendLedgerRecord(nil, m)
	case DetectionRec:
		return AppendDetection(nil, m)
	case []JournalEntry:
		return AppendJournal(nil, m)
	case StoredBill:
		return AppendStoredBill(nil, &m)
	case StoredLoad:
		return AppendStoredLoad(nil, &m)
	}
	t.Fatalf("unsupported %T", msg)
	return nil
}

// decodeAny parses the frame back into the same concrete type.
func decodeAny(t *testing.T, data []byte) (interface{}, int, error) {
	t.Helper()
	typ, err := Peek(data)
	if err != nil {
		return nil, 0, err
	}
	switch typ {
	case TypeBid:
		return firstErr(DecodeBid(data))
	case TypeAlloc:
		return firstErr(DecodeAlloc(data))
	case TypeLoad:
		return firstErr(DecodeLoad(data))
	case TypeBill:
		return firstErr(DecodeBill(data))
	case TypeGrievance:
		return firstErr(DecodeGrievance(data))
	case TypeHello:
		return firstErr(DecodeHello(data))
	case TypeHelloAck:
		return firstErr(DecodeHelloAck(data))
	case TypeRound:
		return firstErr(DecodeRound(data))
	case TypeRoundResult:
		return firstErr(DecodeRoundResult(data))
	case TypeSrvError:
		return firstErr(DecodeSrvError(data))
	case TypeStream:
		return firstErr(DecodeStream(data))
	case TypeStreamEnd:
		return firstErr(DecodeStreamEnd(data))
	case TypeLedgerRecord:
		return firstErr(DecodeLedgerRecord(data))
	case TypeDetection:
		return firstErr(DecodeDetection(data))
	case TypeJournal:
		return firstErr(DecodeJournal(data))
	case TypeStoredBill:
		return firstErr(DecodeStoredBill(data))
	case TypeStoredLoad:
		return firstErr(DecodeStoredLoad(data))
	}
	t.Fatalf("unsupported type %v", typ)
	return nil, 0, nil
}

func firstErr[T any](v T, n int, err error) (interface{}, int, error) { return v, n, err }

func allSamples() []interface{} {
	return []interface{}{
		sampleBid(),
		Bid{From: 0}, // zero signatures
		sampleAlloc(),
		Alloc{To: 1}, // zero-value signeds
		sampleLoad(),
		Load{}, // empty attestation
		sampleBill(),
		Bill{From: 0, Proof: Proof{}}, // root's bill: no G, no successor
		sampleGrievance(),
		sampleHello(),
		Hello{}, // empty tenant
		HelloAck{SessionID: 42, Pooled: true},
		sampleRound(),
		Round{Seq: 1}, // no network, no deviants, no faults
		sampleRoundResult(),
		RoundResult{Seq: 9, TermReason: "terminated"},
		SrvError{Seq: 2, Code: "overloaded", Msg: "round slots exhausted"},
		SrvError{},
		sampleStream(),
		Stream{Count: 1, Depth: 1, Round: Round{Seq: 1}}, // minimal stream
		StreamEnd{Seq: 17, Served: 64, Code: "ok"},
		StreamEnd{Code: "draining", Msg: "daemon shutting down"},
		sampleLedgerRecord(),
		LedgerRecord{Kind: 9}, // no parents, no payload
		sampleDetection(),
		DetectionRec{},
		sampleJournal(),
		[]JournalEntry(nil), // a round that moved no money
		sampleStoredBill(),
		StoredBill{Bill: Bill{From: 4}, Refs: BillRefs{BillAtt: sampleAttRef(0)}}, // the last bill: only Λ referenced
		sampleStoredLoad(),
	}
}

// sampleAttRef names load-ack(slot)'s Λ from block 2 on.
func sampleAttRef(slot int) LedgerRef {
	return LedgerRef{Kind: refKindLoadAck, Field: RefLoadAtt, Slot: slot, Offset: 2}
}

// sampleStoredBill is sampleBill with G and the successor bid stored as
// references and the own bid and Λ literal; the referenced sections are
// zero, as decoding leaves them.
func sampleStoredBill() StoredBill {
	b := sampleBill()
	b.Proof.G, b.Proof.SuccBid = Alloc{}, sign.Signed{}
	return StoredBill{Bill: b, Refs: BillRefs{
		BillG:       {Kind: refKindAlloc, Field: RefAlloc, Slot: 2},
		BillSuccBid: {Kind: refKindBid, Field: RefBidSigned, Slot: 3},
	}}
}

func sampleStoredLoad() StoredLoad {
	return StoredLoad{Load: Load{Amount: 0.25}, Ref: sampleAttRef(1)}
}

func sampleJournal() []JournalEntry {
	return []JournalEntry{{From: -1, To: 2, Amount: 1.5}, {From: 3, To: -1, Amount: 0.25}, {From: -1, To: 1, Amount: 0}}
}

func TestRoundTripExact(t *testing.T) {
	t.Parallel()
	for _, msg := range allSamples() {
		frame := encodeAny(t, msg)
		got, n, err := decodeAny(t, frame)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if n != len(frame) {
			t.Fatalf("%T: consumed %d of %d bytes", msg, n, len(frame))
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("%T: decode(encode(m)) != m\n got %+v\nwant %+v", msg, got, msg)
		}
		// Encoding the decoded message must reproduce the frame bit-for-bit.
		again := encodeAny(t, got)
		if !bytes.Equal(again, frame) {
			t.Fatalf("%T: encode(decode(b)) != b", msg)
		}
	}
}

func TestStreamSplitting(t *testing.T) {
	t.Parallel()
	var stream []byte
	msgs := allSamples()
	for _, m := range msgs {
		stream = append(stream, encodeAny(t, m)...)
	}
	for i, want := range msgs {
		got, n, err := decodeAny(t, stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: mismatch", i)
		}
		stream = stream[n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d trailing bytes", len(stream))
	}
}

func TestTruncationErrorsNeverPanic(t *testing.T) {
	t.Parallel()
	for _, msg := range allSamples() {
		frame := encodeAny(t, msg)
		for cut := 0; cut < len(frame); cut++ {
			if _, _, err := decodeAny(t, frame[:cut]); err == nil {
				t.Fatalf("%T: truncation to %d/%d bytes decoded without error", msg, cut, len(frame))
			}
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	t.Parallel()
	frame := AppendLoad(nil, sampleLoad())

	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, err := Peek(bad); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), frame...)
	bad[3] = Version + 1
	if _, err := Peek(bad); err == nil {
		t.Fatal("future version accepted")
	}

	// 0x06 and 0x07 are the retired batch frames: reserved, so unknown.
	for _, typ := range []byte{0x06, 0x07, 0x7f} {
		bad = append([]byte(nil), frame...)
		bad[4] = typ
		if _, err := Peek(bad); !errors.Is(err, ErrBadType) {
			t.Fatalf("Peek on type 0x%02x: %v, want ErrBadType", typ, err)
		}
		if _, _, err := ReadFrame(bytes.NewReader(bad), nil, 0); !errors.Is(err, ErrBadType) {
			t.Fatalf("ReadFrame on type 0x%02x: %v, want ErrBadType", typ, err)
		}
	}

	// Decoding as the wrong type must fail cleanly.
	if _, _, err := DecodeBid(frame); err == nil {
		t.Fatal("DecodeBid accepted a load frame")
	}
}

func TestTrailingBodyBytesRejected(t *testing.T) {
	t.Parallel()
	frame := AppendLoad(nil, sampleLoad())
	// Append a junk byte to the body and patch the declared length to match:
	// structurally complete, but the body has unconsumed bytes.
	inflated := append(append([]byte(nil), frame...), 0xEE)
	inflated = patchLength(inflated, 5)
	if _, _, err := DecodeLoad(inflated); err == nil {
		t.Fatal("frame with trailing body bytes accepted")
	}
}

func TestNonCanonicalBoolRejected(t *testing.T) {
	t.Parallel()
	frame := AppendLoad(nil, Load{Amount: 1})
	// The corrupted flag sits right after the 8-byte amount.
	idx := headerSize + 8
	frame[idx] = 2
	if _, _, err := DecodeLoad(frame); err == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestOversizedCountRejected(t *testing.T) {
	t.Parallel()
	frame := AppendBid(nil, Bid{From: 1})
	// Claim 2^31 signatures in an 12-byte body; the decoder must reject it
	// before attempting any allocation.
	binary := frame[headerSize+8 : headerSize+12]
	binary[0], binary[1], binary[2], binary[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeBid(frame); err == nil {
		t.Fatal("oversized signature count accepted")
	}
}

func TestSlotRoundTrip(t *testing.T) {
	t.Parallel()
	cases := []struct {
		kind  SlotKind
		index int
		value float64
	}{
		{SlotEquivBid, 0, 1.5},
		{SlotBid, 7, 2.25},
		{SlotLoad, 512, 0.001953125},
		{SlotLoad, -1, math.Inf(1)},
	}
	for _, c := range cases {
		p := EncodeSlot(c.kind, c.index, c.value)
		if len(p) != SlotSize {
			t.Fatalf("payload size %d", len(p))
		}
		k, i, v, err := DecodeSlot(p)
		if err != nil || k != c.kind || i != c.index || v != c.value {
			t.Fatalf("round trip %+v -> (%v,%d,%v,%v)", c, k, i, v, err)
		}
	}
	if _, _, _, err := DecodeSlot([]byte("short")); err == nil {
		t.Fatal("short slot accepted")
	}
	bad := EncodeSlot(SlotBid, 1, 2)
	bad[3] = 'Z'
	if _, _, _, err := DecodeSlot(bad); err == nil {
		t.Fatal("unknown slot kind accepted")
	}
}

func TestAppendSlotMatchesEncodeSlot(t *testing.T) {
	t.Parallel()
	buf := make([]byte, 0, 64)
	buf = AppendSlot(buf, SlotBid, 9, 3.5)
	if !bytes.Equal(buf, EncodeSlot(SlotBid, 9, 3.5)) {
		t.Fatal("AppendSlot and EncodeSlot disagree")
	}
}

func TestToJSON(t *testing.T) {
	t.Parallel()
	out, err := ToJSON(sampleBid())
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]interface{}
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatal(err)
	}
	if env["wire_version"] != float64(Version) || env["type"] != "bid" {
		t.Fatalf("bad envelope: %v", env)
	}
	if _, err := ToJSON(42); err == nil {
		t.Fatal("ToJSON accepted a non-message")
	}

	frame := AppendBill(nil, sampleBill())
	out, err = FrameToJSON(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatal(err)
	}
	if env["type"] != "bill" {
		t.Fatalf("bad frame envelope type: %v", env["type"])
	}
	if _, err := FrameToJSON(frame[:4]); err == nil {
		t.Fatal("FrameToJSON accepted a truncated frame")
	}
}

// --- Codec micro-benchmarks -------------------------------------------------

// BenchmarkAppendBill prices encoding the largest frame (bill + proof
// bundle) into a reused buffer — the steady state of a transport writer.
func BenchmarkAppendBill(b *testing.B) {
	bill := sampleBill()
	buf := AppendBill(nil, bill)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendBill(buf[:0], bill)
	}
}

func BenchmarkDecodeBill(b *testing.B) {
	data := AppendBill(nil, sampleBill())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBill(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlotRoundTrip prices the canonical slot payload — the bytes every
// ed25519 sign and verify on the protocol hot path hashes.
func BenchmarkSlotRoundTrip(b *testing.B) {
	var buf [SlotSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := AppendSlot(buf[:0], SlotEquivBid, 3, 1.75)
		if _, _, _, err := DecodeSlot(p); err != nil {
			b.Fatal(err)
		}
	}
}
