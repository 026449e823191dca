package wire

import (
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
	}
	return nil
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
		case TypeBid, TypeAlloc, TypeLoad, TypeGrievance, TypeBill, TypeDetection, TypeJournal:
		default:
			if err := VisitSigned(frame, typ, func(string, sign.Signed) error { return nil }); err == nil {
				t.Fatalf("%s: VisitSigned accepted a frame that is not evidence", typ)
			}
			continue
		}
		var got []sign.Signed
		if err := VisitSigned(frame, typ, func(_ string, s sign.Signed) error {
			got = append(got, s)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", typ, err)
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
