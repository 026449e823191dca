package protocol

import (
	"fmt"
	"math"

	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// The protocol's message vocabulary — the Phase I-IV message types and the
// canonical slot payload encodings — lives in internal/wire, together with
// the binary frame codec that ships these messages across a real transport.
// The aliases below keep the runtime's call sites short; the verification
// helpers that interpret the messages (expectSlot, verifyG,
// arithmeticConsistent) stay here because they need the PKI and the paper's
// arithmetic, which are protocol concerns, not encoding concerns.
type (
	bidMsg      = wire.Bid
	gMsg        = wire.Alloc
	loadMsg     = wire.Load
	billMsg     = wire.Bill
	proofBundle = wire.Proof
)

type slotKind = wire.SlotKind

const (
	slotEquivBid = wire.SlotEquivBid
	slotBid      = wire.SlotBid
	slotLoad     = wire.SlotLoad
)

var errBadSlot = wire.ErrBadSlot

// slotPayloadSize sizes the stack buffers the hot paths encode slots into.
const slotPayloadSize = wire.SlotSize

func appendSlot(dst []byte, kind slotKind, index int, value float64) []byte {
	return wire.AppendSlot(dst, kind, index, value)
}

func decodeSlot(payload []byte) (slotKind, int, float64, error) {
	return wire.DecodeSlot(payload)
}

// expectSlot verifies one signed slot: signature valid, signed by wantSigner,
// and carrying the expected kind and index. It returns the committed value.
func expectSlot(pki *sign.PKI, msg sign.Signed, wantSigner int, wantKind slotKind, wantIndex int) (float64, error) {
	if msg.SignerID != wantSigner {
		return 0, fmt.Errorf("protocol: slot signed by %d, want %d", msg.SignerID, wantSigner)
	}
	if err := pki.Verify(msg); err != nil {
		return 0, err
	}
	kind, index, value, err := decodeSlot(msg.Payload)
	if err != nil {
		return 0, err
	}
	if kind != wantKind || index != wantIndex {
		return 0, fmt.Errorf("protocol: slot is %c[%d], want %c[%d]", kind, index, wantKind, wantIndex)
	}
	return value, nil
}

// gValues holds the decoded and signature-checked contents of a G message.
type gValues struct {
	PrevLoad  float64 // D_{i-1}
	Load      float64 // D_i
	PrevEquiv float64 // w̄_{i-1}
	PrevBid   float64 // w_{i-1}
	EchoEquiv float64 // w̄_i as echoed by the predecessor
}

// verifyG checks authenticity, integrity and slot shape of G_i for receiver
// i, slot by slot through the PKI memo. The two "prev-prev" items are signed
// by i-2 (or the root for i = 1), the rest by i-1.
func verifyG(pki *sign.PKI, i int, g gMsg) (gValues, error) {
	signerPrevPrev := i - 2
	if i == 1 {
		signerPrevPrev = 0
	}
	var v gValues
	var err error
	if v.PrevLoad, err = expectSlot(pki, g.PrevLoad, signerPrevPrev, slotLoad, i-1); err != nil {
		return v, fmt.Errorf("G_%d PrevLoad: %w", i, err)
	}
	if v.Load, err = expectSlot(pki, g.Load, i-1, slotLoad, i); err != nil {
		return v, fmt.Errorf("G_%d Load: %w", i, err)
	}
	if v.PrevEquiv, err = expectSlot(pki, g.PrevEquiv, signerPrevPrev, slotEquivBid, i-1); err != nil {
		return v, fmt.Errorf("G_%d PrevEquiv: %w", i, err)
	}
	if v.PrevBid, err = expectSlot(pki, g.PrevBid, i-1, slotBid, i-1); err != nil {
		return v, fmt.Errorf("G_%d PrevBid: %w", i, err)
	}
	if v.EchoEquiv, err = expectSlot(pki, g.EchoEquiv, i-1, slotEquivBid, i); err != nil {
		return v, fmt.Errorf("G_%d EchoEquiv: %w", i, err)
	}
	return v, nil
}

// loadTolFloor is the absolute slack granted to the D-recurrence check below
// its relative tolerance. Algorithm 1's load fractions decay geometrically,
// so on deep chains D legitimately underflows into the subnormal range
// (m ≈ 2000 under the default workload) and eventually to exact zero; down
// there denormal rounding dominates any relative comparison. A discrepancy
// under the floor moves less than 1e-300 of the load — economically nil, far
// below what any fine or payment can resolve.
const loadTolFloor = 1e-300

// arithmeticConsistent checks the Phase II identities the receiver validates
// (Sect. 4, Phase II). The local fraction is recovered in the *bid* domain,
// α̂_{i-1} = w̄_{i-1}/w_{i-1} — identity (2.4) read backwards — which keeps
// every operand O(1) at any chain depth. The load-domain form the paper
// prints, α̂_{i-1} = (D_{i-1} − D_i)/D_{i-1}, is ill-conditioned on deep
// chains: D decays geometrically into subnormals, where the division loses
// enough precision to fail honest rounds past m ≈ 2000. With α̂ fixed, the
// receiver pins the remaining commitments:
//
//	α̂_{i-1}·w_{i-1} = (1−α̂_{i-1})·(w̄_i + z_i)   (2.7, equal finish)
//	D_i = (1−α̂_{i-1})·D_{i-1}                    (Algorithm 1 forward sweep)
//
// (The paper prints (2.7) with w_i; the quantity that makes the recursion of
// Algorithm 1 close is the equivalent bid w̄_i — see DESIGN.md.) Both checks
// are scale-aware: the finish identity relative to the bid magnitudes, the D
// recurrence relative to D_{i-1} with loadTolFloor absorbing denormal
// rounding. zi is public knowledge.
func arithmeticConsistent(v gValues, zi float64, tol float64) error {
	if !(v.PrevBid > 0) || !(v.PrevEquiv >= 0) || !(v.EchoEquiv >= 0) || !(zi >= 0) {
		return fmt.Errorf("protocol: implausible bids w_{i-1}=%v w̄_{i-1}=%v w̄_i=%v", v.PrevBid, v.PrevEquiv, v.EchoEquiv)
	}
	if !(v.Load >= 0) || !(v.PrevLoad >= 0) || v.Load > v.PrevLoad {
		return fmt.Errorf("protocol: implausible loads D_{i-1}=%v D_i=%v", v.PrevLoad, v.Load)
	}
	hat := v.PrevEquiv / v.PrevBid // (2.4): α̂_{i-1} = w̄_{i-1}/w_{i-1}
	if !(hat >= 0 && hat <= 1) {
		return fmt.Errorf("protocol: implausible local fraction α̂=%v", hat)
	}
	scale := 1 + v.PrevEquiv + v.EchoEquiv + zi
	if d := math.Abs(v.PrevEquiv - float64((1-hat)*(v.EchoEquiv+zi))); d > tol*scale {
		return fmt.Errorf("protocol: equal-finish identity off by %v", d)
	}
	if d := math.Abs(v.Load - float64((1-hat)*v.PrevLoad)); d > float64(tol*v.PrevLoad)+loadTolFloor {
		return fmt.Errorf("protocol: D recurrence off by %v", d)
	}
	return nil
}
