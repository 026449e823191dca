package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the frame decoder. The contract:
// decoding never panics; when a frame decodes, re-encoding it reproduces the
// consumed bytes exactly, and decoding the re-encoding yields an equal
// message. Seeded with one valid frame per message type plus mutations.
func FuzzWireRoundTrip(f *testing.F) {
	seeds := [][]byte{
		AppendBid(nil, sampleBid()),
		AppendBid(nil, Bid{From: 5}),
		AppendAlloc(nil, sampleAlloc()),
		AppendLoad(nil, sampleLoad()),
		AppendBill(nil, sampleBill()),
		AppendBill(nil, Bill{Proof: Proof{}}),
		AppendGrievance(nil, sampleGrievance()),
		// The reserved type codes 0x06 and 0x07 (retired batch frames), bare
		// and over a valid body, must be refused like any unknown type.
		{'D', 'L', 'S', Version, 0x06, 0, 0, 0, 0},
		{'D', 'L', 'S', Version, 0x07, 0, 0, 0, 0},
		retype(AppendBid(nil, sampleBid()), 0x06),
		retype(AppendBill(nil, sampleBill()), 0x07),
		AppendHello(nil, sampleHello()),
		AppendHelloAck(nil, HelloAck{SessionID: 7, Pooled: true}),
		AppendRound(nil, sampleRound()),
		AppendRoundResult(nil, sampleRoundResult()),
		AppendSrvError(nil, SrvError{Seq: 3, Code: "overloaded", Msg: "try later"}),
		AppendStream(nil, sampleStream()),
		AppendStream(nil, Stream{Count: 1, Depth: 1, Round: Round{Seq: 1}}),
		AppendStreamEnd(nil, StreamEnd{Seq: 17, Served: 64, Code: "ok"}),
		AppendLedgerRecord(nil, sampleLedgerRecord()),
		AppendLedgerRecord(nil, LedgerRecord{Kind: 1}),
		AppendDetection(nil, sampleDetection()),
		AppendJournal(nil, sampleJournal()),
		storedBillFrame(),
		storedLoadFrame(),
		[]byte("DLS"),
		{'D', 'L', 'S', Version, byte(TypeBid), 0xff, 0xff, 0xff, 0xff},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// A truncation ladder over one frame gets the fuzzer past the header fast.
	bill := AppendBill(nil, sampleBill())
	for cut := 0; cut < len(bill); cut += 7 {
		f.Add(bill[:cut])
	}
	stored := storedBillFrame()
	for cut := 0; cut < len(stored); cut += 7 {
		f.Add(stored[:cut])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, err := Peek(data)
		if err != nil {
			return // malformed header must simply error; reaching here means no panic
		}
		var (
			msg     interface{}
			n       int
			decErr  error
			reframe func() []byte
		)
		switch typ {
		case TypeBid:
			var m Bid
			m, n, decErr = DecodeBid(data)
			msg, reframe = m, func() []byte { return AppendBid(nil, m) }
		case TypeAlloc:
			var m Alloc
			m, n, decErr = DecodeAlloc(data)
			msg, reframe = m, func() []byte { return AppendAlloc(nil, m) }
		case TypeLoad:
			var m Load
			m, n, decErr = DecodeLoad(data)
			msg, reframe = m, func() []byte { return AppendLoad(nil, m) }
		case TypeBill:
			var m Bill
			m, n, decErr = DecodeBill(data)
			msg, reframe = m, func() []byte { return AppendBill(nil, m) }
		case TypeGrievance:
			var m Grievance
			m, n, decErr = DecodeGrievance(data)
			msg, reframe = m, func() []byte { return AppendGrievance(nil, m) }
		case TypeHello:
			var m Hello
			m, n, decErr = DecodeHello(data)
			msg, reframe = m, func() []byte { return AppendHello(nil, m) }
		case TypeHelloAck:
			var m HelloAck
			m, n, decErr = DecodeHelloAck(data)
			msg, reframe = m, func() []byte { return AppendHelloAck(nil, m) }
		case TypeRound:
			var m Round
			m, n, decErr = DecodeRound(data)
			msg, reframe = m, func() []byte { return AppendRound(nil, m) }
		case TypeRoundResult:
			var m RoundResult
			m, n, decErr = DecodeRoundResult(data)
			msg, reframe = m, func() []byte { return AppendRoundResult(nil, m) }
		case TypeSrvError:
			var m SrvError
			m, n, decErr = DecodeSrvError(data)
			msg, reframe = m, func() []byte { return AppendSrvError(nil, m) }
		case TypeStream:
			var m Stream
			m, n, decErr = DecodeStream(data)
			msg, reframe = m, func() []byte { return AppendStream(nil, m) }
		case TypeStreamEnd:
			var m StreamEnd
			m, n, decErr = DecodeStreamEnd(data)
			msg, reframe = m, func() []byte { return AppendStreamEnd(nil, m) }
		case TypeLedgerRecord:
			var m LedgerRecord
			m, n, decErr = DecodeLedgerRecord(data)
			msg, reframe = m, func() []byte { return AppendLedgerRecord(nil, m) }
		case TypeDetection:
			var m DetectionRec
			m, n, decErr = DecodeDetection(data)
			msg, reframe = m, func() []byte { return AppendDetection(nil, m) }
		case TypeJournal:
			var m []JournalEntry
			m, n, decErr = DecodeJournal(data)
			msg, reframe = m, func() []byte { return AppendJournal(nil, m) }
		case TypeStoredBill:
			var m StoredBill
			m, n, decErr = DecodeStoredBill(data)
			msg, reframe = m, func() []byte { return AppendStoredBill(nil, &m) }
		case TypeStoredLoad:
			var m StoredLoad
			m, n, decErr = DecodeStoredLoad(data)
			msg, reframe = m, func() []byte { return AppendStoredLoad(nil, &m) }
		}
		if decErr != nil {
			return
		}
		frame := reframe()
		if n != len(frame) || !bytes.Equal(frame, data[:n]) {
			t.Fatalf("encode(decode(b)) != b for %s frame: consumed %d, re-encoded %d bytes", typ, n, len(frame))
		}
		// Decode the re-encoding and require an identical message. NaN float
		// fields would break DeepEqual, so compare the byte encodings instead
		// when DeepEqual fails.
		got, n2, err := decodeAny(t, frame)
		if err != nil || n2 != n {
			t.Fatalf("re-decode failed: %v (n=%d, want %d)", err, n2, n)
		}
		if !reflect.DeepEqual(got, msg) && !bytes.Equal(encodeAny(t, got), frame) {
			t.Fatalf("decode(encode(m)) != m for %s frame", typ)
		}
	})
}

func storedBillFrame() []byte {
	sb := sampleStoredBill()
	return AppendStoredBill(nil, &sb)
}

func storedLoadFrame() []byte {
	sl := sampleStoredLoad()
	return AppendStoredLoad(nil, &sl)
}

// retype returns a copy of frame with its header type byte set to t.
func retype(frame []byte, t byte) []byte {
	out := append([]byte(nil), frame...)
	out[4] = t
	return out
}
