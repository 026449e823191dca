package protocol

import (
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// EvidenceSink receives every signed artifact a round produces, as it is
// produced, so a caller can persist the evidence the mechanism's guarantees
// rest on (internal/ledger records them into a content-addressed DAG). The
// sink observes the protocol; it cannot influence it — no method returns
// anything, and a sink failure is the sink owner's problem to surface
// (internal/server checks its recorder's sticky error before acknowledging
// the round).
//
// Call sites are the step/arbiter helpers, so sequential and pipelined
// rounds record the identical artifact set for equal seeds:
//
//   - RecordBid: the root's registration of P_slot's signed Phase I
//     commitment (arbiter.noteBid, deduplicated — one call per processor).
//   - RecordAlloc: G_{i+1} as built by P_i in Phase II, before transport.
//   - RecordLoadAck: P_slot's Phase III receipt — the amount received and
//     the Λ attestation it will certify with — recorded on receipt, before
//     P_slot forwards anything, so load-ack(i) always precedes
//     load-ack(i+1).
//   - RecordGrievance: an overload accusation bundle as filed.
//   - RecordBill: P_slot's Phase IV bill with its proof bundle, first copy
//     per sender, recorded in slot order once bill collection is over,
//     after every other artifact of the round.
//
// That order is what lets a recorder store a load ack or a bill as
// references to the artifacts recorded before it and still write equal
// bytes for equal rounds.
//
// Implementations must be safe for concurrent use: processors run as
// goroutines and several may record at once. They must also not retain the
// messages (or any contained slice) beyond the call — attestation and bid
// buffers are per-processor arenas reused across rounds. A persisting sink
// therefore serializes synchronously.
type EvidenceSink interface {
	RecordBid(slot int, s sign.Signed)
	RecordAlloc(g wire.Alloc)
	RecordLoadAck(slot int, l wire.Load)
	RecordGrievance(gr wire.Grievance)
	RecordBill(b wire.Bill)
}
