package protocol

import (
	"bytes"
	"math"
	"testing"

	"dlsmech/internal/wire"
)

func encodeSlot(kind slotKind, index int, value float64) []byte {
	return wire.EncodeSlot(kind, index, value)
}

// FuzzSlotCodec: decodeSlot must never panic on arbitrary bytes and must
// round-trip everything encodeSlot produces.
func FuzzSlotCodec(f *testing.F) {
	f.Add([]byte("SLTB aaaaaaaabbbbbbbb"))
	f.Add(encodeSlot(slotEquivBid, 3, 2.5))
	f.Add(encodeSlot(slotLoad, 0, 1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, index, value, err := decodeSlot(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode to the identical bytes.
		if math.IsNaN(value) {
			return // NaN payloads decode but cannot round-trip bit-exactly via ==
		}
		re := encodeSlot(kind, index, value)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not a bijection: %x vs %x", re, data)
		}
	})
}

// FuzzSlotEncodeDecode: every encoded slot decodes to the same triple.
func FuzzSlotEncodeDecode(f *testing.F) {
	f.Add(byte(0), 5, 3.25)
	f.Add(byte(1), -1, 0.0)
	f.Add(byte(2), 1<<30, -17.5)
	f.Fuzz(func(t *testing.T, kindRaw byte, index int, value float64) {
		kinds := []slotKind{slotEquivBid, slotBid, slotLoad}
		kind := kinds[int(kindRaw)%len(kinds)]
		enc := encodeSlot(kind, index, value)
		k2, i2, v2, err := decodeSlot(enc)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if k2 != kind || i2 != index {
			t.Fatalf("kind/index mangled: %c/%d vs %c/%d", k2, i2, kind, index)
		}
		if math.Float64bits(v2) != math.Float64bits(value) {
			t.Fatalf("value mangled: %v vs %v", v2, value)
		}
	})
}

// FuzzArithmeticConsistent must never panic and must accept exactly the
// identities Algorithm 1 produces.
func FuzzArithmeticConsistent(f *testing.F) {
	f.Add(1.0, 0.5, 0.6, 1.2, 1.5, 0.3)
	f.Fuzz(func(t *testing.T, prevLoad, load, prevEquiv, prevBid, echoEquiv, zi float64) {
		v := gValues{PrevLoad: prevLoad, Load: load, PrevEquiv: prevEquiv, PrevBid: prevBid, EchoEquiv: echoEquiv}
		_ = arithmeticConsistent(v, zi, wireTol) // must not panic
		// Construct a consistent tuple from the same raw floats and verify
		// it is accepted.
		w := 0.1 + math.Abs(prevBid)
		succ := 0.1 + math.Abs(echoEquiv)
		z := math.Abs(zi)
		if math.IsInf(w, 0) || math.IsInf(succ, 0) || math.IsInf(z, 0) || math.IsNaN(w+succ+z) {
			return
		}
		hat := (succ + z) / (w + succ + z)
		d := 0.1 + math.Mod(math.Abs(prevLoad), 1)
		good := gValues{
			PrevLoad:  d,
			Load:      d * (1 - hat),
			PrevEquiv: hat * w,
			PrevBid:   w,
			EchoEquiv: succ,
		}
		if err := arithmeticConsistent(good, z, 1e-6); err != nil {
			t.Fatalf("consistent tuple rejected: %v (w=%v succ=%v z=%v)", err, w, succ, z)
		}
	})
}
