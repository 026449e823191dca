// Package wire defines the protocol's message vocabulary and its canonical
// encodings: the four Phase I-IV message types of the DLS-LBL protocol
// (Carroll & Grosu, IPPS 2007, Sect. 4) plus the accusation bundle, the
// slot payloads every numeric commitment is signed over, and a
// deterministic, length-prefixed binary codec for shipping whole messages
// across a real transport.
//
// Two encoding layers live here, and they serve different masters:
//
//   - Slot payloads (AppendSlot/DecodeSlot) are the bytes signatures cover.
//     They must be canonical — the same value signed for the same slot is
//     byte-identical, which is what makes the contradiction check of
//     Lemma 5.2 meaningful — and they are on the protocol's hot path: every
//     ed25519 sign and verify hashes one.
//
//   - Message frames (Append*/Decode*) carry whole messages. The frame
//     format is versioned (magic "DLS" + version byte + type byte) and
//     length-prefixed so a stream reader can split frames without parsing
//     bodies. Decoding is exact: Decode(Encode(m)) == m for every message,
//     and Encode(Decode(b)) reproduces b for every valid frame. Truncated
//     or corrupt input returns an error, never panics, and never provokes
//     an attacker-sized allocation (every count is validated against the
//     bytes actually present).
//
// JSON rendering of the same messages (ToJSON) exists for debugging and
// -trace output only; nothing on the hot path touches encoding/json.
package wire

import (
	"dlsmech/internal/device"
	"dlsmech/internal/sign"
)

// Version is the wire-format version emitted in every frame header.
const Version = 1

// MsgType tags the frame body type in the header.
type MsgType byte

// Frame body types.
const (
	TypeBid       MsgType = 0x01 // Phase I equivalent bid
	TypeAlloc     MsgType = 0x02 // Phase II allocation message G_i
	TypeLoad      MsgType = 0x03 // Phase III load transfer
	TypeBill      MsgType = 0x04 // Phase IV itemized bill + proof bundle
	TypeGrievance MsgType = 0x05 // Phase III overload accusation bundle
	// 0x06 and 0x07 are reserved (retired batch frames): never reuse them.

	TypeLedgerRecord MsgType = 0x20 // evidence-ledger DAG node envelope
	TypeDetection    MsgType = 0x21 // one arbitration outcome as a fine artifact
	TypeJournal      MsgType = 0x22 // a settled round's transfers as a journal artifact
	TypeStoredBill   MsgType = 0x23 // a bill artifact whose proof references other artifacts
	TypeStoredLoad   MsgType = 0x24 // a load ack whose Λ references another load ack's
)

// String names the type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case TypeBid:
		return "bid"
	case TypeAlloc:
		return "alloc"
	case TypeLoad:
		return "load"
	case TypeBill:
		return "bill"
	case TypeGrievance:
		return "grievance"
	case TypeHello:
		return "hello"
	case TypeHelloAck:
		return "hello-ack"
	case TypeRound:
		return "round"
	case TypeRoundResult:
		return "round-result"
	case TypeSrvError:
		return "srv-error"
	case TypeStream:
		return "stream"
	case TypeStreamEnd:
		return "stream-end"
	case TypeLedgerRecord:
		return "ledger-record"
	case TypeDetection:
		return "detection"
	case TypeJournal:
		return "journal"
	case TypeStoredBill:
		return "stored-bill"
	case TypeStoredLoad:
		return "stored-load"
	default:
		return "unknown"
	}
}

// Bid is the Phase I message from P_i to P_{i-1}. An honest processor sends
// exactly one signed equivalent bid; a contradictor sends two with different
// values.
type Bid struct {
	From   int
	Signed []sign.Signed // dsm_i(w̄_i), one or more
}

// Alloc is the Phase II message G_i from P_{i-1} to P_i (equations
// (4.1)-(4.2)): the signed commitments the receiver needs to validate the
// allocation arithmetic.
//
//	PrevLoad  = dsm_{i-2}(D_{i-1})
//	Load      = dsm_{i-1}(D_i)
//	PrevEquiv = dsm_{i-2}(w̄_{i-1})
//	PrevBid   = dsm_{i-1}(w_{i-1})
//	EchoEquiv = dsm_{i-1}(w̄_i)   — the receiver's own Phase I bid, echoed
//
// For i = 1 every item is signed by the root (4.1).
type Alloc struct {
	To        int
	PrevLoad  sign.Signed
	Load      sign.Signed
	PrevEquiv sign.Signed
	PrevBid   sign.Signed
	EchoEquiv sign.Signed
}

// Clone deep-copies the message for use as immutable evidence.
func (g Alloc) Clone() Alloc {
	return Alloc{
		To:        g.To,
		PrevLoad:  g.PrevLoad.Clone(),
		Load:      g.Load.Clone(),
		PrevEquiv: g.PrevEquiv.Clone(),
		PrevBid:   g.PrevBid.Clone(),
		EchoEquiv: g.EchoEquiv.Clone(),
	}
}

// Load is the Phase III transfer: the work amount, its Λ attestation, and a
// corruption marker standing in for the (unmodeled) data payload. A
// corrupted payload destroys the solution of a verifiable computation but is
// not otherwise observable in-protocol — exactly the selfish-and-annoying
// action of Theorem 5.2.
type Load struct {
	Amount    float64
	Att       device.Attestation
	Corrupted bool
}

// Bill is the itemized Phase IV bill plus the proof bundle (4.12) the root
// may audit. Total() is Q_j.
type Bill struct {
	From         int
	Compensation float64 // α_j·w̃_j
	Recompense   float64 // E_j
	Bonus        float64 // B_j (an overcharger inflates this item)
	Solution     float64 // S
	Proof        Proof
}

// Total returns the charged amount Q_j.
func (b Bill) Total() float64 {
	return b.Compensation + b.Recompense + b.Bonus + b.Solution
}

// Proof is Proof_j (4.12): everything the root needs to recompute Q_j.
type Proof struct {
	G       Alloc               // G_j (zero value for j = 0)
	SuccBid sign.Signed         // dsm_{j+1}(w̄_{j+1}); zero value for j = m
	OwnBid  sign.Signed         // dsm_j(w_j)
	Meter   device.MeterReading // dsm_0(w̃_j, α̃_j)
	Att     device.Attestation  // Λ_j
	HasSucc bool
}

// Grievance is the Phase III overload accusation bundle Grievance_i =
// (G_i, Λ_i, dsm_0(w̃_i)): the signed allocation establishing the planned
// share, the attestation proving what was actually received, and the meter
// reading for the recompense arithmetic.
type Grievance struct {
	Reporter int
	G        Alloc
	Att      device.Attestation
	Meter    device.MeterReading
}
