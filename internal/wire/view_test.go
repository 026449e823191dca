package wire

import (
	"reflect"
	"testing"

	"dlsmech/internal/sign"
)

// signedOf lists the signatures VisitSigned reports for one decoded
// evidence message, in its order.
func signedOf(msg interface{}) []sign.Signed {
	alloc := func(g Alloc) []sign.Signed {
		return []sign.Signed{g.PrevLoad, g.Load, g.PrevEquiv, g.PrevBid, g.EchoEquiv}
	}
	switch m := msg.(type) {
	case Bid:
		return m.Signed
	case Alloc:
		return alloc(m)
	case Grievance:
		return append(alloc(m.G), m.Meter.Msg)
	case Bill:
		out := alloc(m.Proof.G)
		if m.Proof.HasSucc {
			out = append(out, m.Proof.SuccBid)
		}
		return append(out, m.Proof.OwnBid, m.Proof.Meter.Msg)
	case StoredBill:
		// The sections stored as references hold no signature here.
		var out []sign.Signed
		p := m.Bill.Proof
		if !m.Refs[BillG].IsSet() {
			out = alloc(p.G)
		}
		if p.HasSucc && !m.Refs[BillSuccBid].IsSet() {
			out = append(out, p.SuccBid)
		}
		if !m.Refs[BillOwnBid].IsSet() {
			out = append(out, p.OwnBid)
		}
		return append(out, p.Meter.Msg)
	}
	return nil
}

// refsOf lists the references a decoded stored frame holds, in encoding
// order.
func refsOf(msg interface{}) []LedgerRef {
	var out []LedgerRef
	switch m := msg.(type) {
	case StoredBill:
		for _, r := range m.Refs {
			if r.IsSet() {
				out = append(out, r)
			}
		}
	case StoredLoad:
		out = append(out, m.Ref)
	}
	return out
}

// TestVisitSignedMatchesDecoders: over every evidence sample, VisitSigned
// reports exactly the signatures the decoded message holds, and accepts
// exactly the frames, truncations and byte flips of them that the decoder
// accepts with no trailing bytes.
func TestVisitSignedMatchesDecoders(t *testing.T) {
	t.Parallel()
	for _, msg := range allSamples() {
		frame := encodeAny(t, msg)
		typ, _ := Peek(frame)
		switch typ {
		case TypeBid, TypeAlloc, TypeLoad, TypeGrievance, TypeBill, TypeDetection, TypeJournal, TypeStoredBill, TypeStoredLoad:
		default:
			if err := VisitSigned(frame, typ, func(string, sign.Signed) error { return nil }); err == nil {
				t.Fatalf("%s: VisitSigned accepted a frame that is not evidence", typ)
			}
			continue
		}
		var got []sign.Signed
		var refs []LedgerRef
		if err := VisitEvidence(frame, typ, func(_ string, s sign.Signed) error {
			got = append(got, s)
			return nil
		}, func(k int, r LedgerRef) error {
			if k != len(refs) {
				t.Fatalf("%s: reference numbered %d after %d", typ, k, len(refs))
			}
			refs = append(refs, r)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if want := refsOf(msg); !reflect.DeepEqual(refs, want) {
			t.Fatalf("%s: visited references %v, the message holds %v", typ, refs, want)
		}
		want := signedOf(msg)
		if len(got) != len(want) {
			t.Fatalf("%s: visited %d signatures, the message holds %d", typ, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: signature %d differs from the decoded one", typ, i)
			}
		}
		agree := func(data []byte, what string) {
			_, n, decErr := decodeAny(t, data)
			ok := decErr == nil && n == len(data)
			err := VisitSigned(data, typ, func(string, sign.Signed) error { return nil })
			if ok != (err == nil) {
				t.Fatalf("%s %s: decoder ok=%v (err %v), VisitSigned err %v", typ, what, ok, decErr, err)
			}
		}
		for cut := 0; cut < len(frame); cut++ {
			agree(frame[:cut], "truncated")
		}
		agree(append(append([]byte(nil), frame...), 0), "with a trailing byte")
		for i := headerSize; i < len(frame); i++ {
			flipped := append([]byte(nil), frame...)
			flipped[i] ^= 0x80
			agree(flipped, "flipped")
		}
	}
}
