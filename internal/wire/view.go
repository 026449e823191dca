package wire

import (
	"fmt"

	"dlsmech/internal/sign"
)

// VisitSigned checks, without copying, that data is exactly one framed
// message of type t — a bid, alloc, load, grievance, bill, detection or
// journal, or a stored bill or load — in the shape its decoder accepts
// (every field present, bools canonical, counts within the frame, no
// trailing bytes), and calls fn with each signature the message embeds, in
// encoding order; a bill's successor bid only when the proof says it has
// one. Detections and journals embed none, and a stored frame's referenced
// sections none: their signatures are the referents'. The Payload and Sig
// of each Signed alias data and must not be modified or kept. A verifier
// that holds the bytes anyway (the evidence ledger) checks every signature
// this way without building the message, its attestations or copies of
// its signed payloads.
//
// fn's name is the field: "signed" for each of a bid's, the alloc field
// names, and "meter", "proof G: <field>", "proof succ bid", "proof own
// bid" and "proof meter".
func VisitSigned(data []byte, t MsgType, fn func(name string, s sign.Signed) error) error {
	return VisitEvidence(data, t, fn, nil)
}

// VisitEvidence is VisitSigned that also calls ref, if not nil, with each
// reference a stored frame holds, numbered from 0 in encoding order (the
// order of the holding record's referent parents).
func VisitEvidence(data []byte, t MsgType, fn func(name string, s sign.Signed) error, ref func(k int, r LedgerRef) error) error {
	body, n, err := frameBody(data, t)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("%d trailing payload bytes", len(data)-n)
	}
	r := reader{buf: body}
	visit := func(name string) error {
		s := r.signedView()
		if r.err != nil {
			return r.err
		}
		return fn(name, s)
	}
	visitAlloc := func(names *[5]string) error {
		r.u64() // To
		for _, name := range names {
			if err := visit(name); err != nil {
				return err
			}
		}
		return nil
	}
	refs := 0
	visitRef := func(want RefField) error {
		lr := r.ref(want)
		if r.err != nil {
			return r.err
		}
		refs++
		if ref == nil {
			return nil
		}
		return ref(refs-1, lr)
	}
	switch t {
	case TypeBid:
		r.u64() // From
		count := int(r.u32())
		if r.err == nil && count*minSignedSize > len(r.buf)-r.off {
			r.fail()
		}
		for i := 0; i < count && r.err == nil; i++ {
			if err := visit("signed"); err != nil {
				return err
			}
		}
	case TypeAlloc:
		if err := visitAlloc(&allocNames); err != nil {
			return err
		}
	case TypeLoad:
		r.u64() // Amount
		r.bool()
		r.skipAtt()
	case TypeGrievance:
		r.u64() // Reporter
		if err := visitAlloc(&allocNames); err != nil {
			return err
		}
		r.skipAtt()
		r.skip(8 + 8 + 8) // meter Proc, WTilde, Load
		if err := visit("meter"); err != nil {
			return err
		}
	case TypeBill, TypeStoredBill:
		r.skip(5 * 8) // From and the four amounts
		hasSucc := r.bool()
		var mask byte // a bill's sections are all literal
		if t == TypeStoredBill {
			mask = r.storedMask()
		}
		section := func(k int, literal func() error) error {
			if mask&(1<<k) != 0 {
				return visitRef(billFields[k])
			}
			return literal()
		}
		if err := section(BillG, func() error { return visitAlloc(&proofAllocNames) }); err != nil {
			return err
		}
		if err := section(BillSuccBid, func() error {
			if hasSucc {
				return visit("proof succ bid")
			}
			r.signedView()
			return nil
		}); err != nil {
			return err
		}
		if err := section(BillOwnBid, func() error { return visit("proof own bid") }); err != nil {
			return err
		}
		r.skip(8 + 8 + 8)
		if err := visit("proof meter"); err != nil {
			return err
		}
		if err := section(BillAtt, func() error { r.skipAtt(); return nil }); err != nil {
			return err
		}
	case TypeStoredLoad:
		r.u64() // Amount
		r.bool()
		if err := visitRef(RefLoadAtt); err != nil {
			return err
		}
	case TypeDetection:
		r.bytesView() // Violation
		r.skip(8 + 8 + 8 + 8)
	case TypeJournal:
		count := int(r.u32())
		if r.err == nil && count*journalEntrySize > len(r.buf)-r.off {
			r.fail()
		}
		r.skip(count * journalEntrySize)
	default:
		return fmt.Errorf("%w: %s is not an evidence frame", ErrBadType, t)
	}
	return r.finish()
}

// The signature fields of an alloc body, in encoding order, as VisitSigned
// names them on their own and inside a bill's proof.
var (
	allocNames      = [5]string{"PrevLoad", "Load", "PrevEquiv", "PrevBid", "EchoEquiv"}
	proofAllocNames = [5]string{"proof G: PrevLoad", "proof G: Load", "proof G: PrevEquiv", "proof G: PrevBid", "proof G: EchoEquiv"}
)

// skip advances past n bytes.
func (r *reader) skip(n int) {
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail()
		return
	}
	r.off += n
}

// bytesView is bytes aliasing the frame: capacity-capped, so an append to
// it cannot write into the bytes that follow.
func (r *reader) bytesView() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// signedView is signed aliasing the frame.
func (r *reader) signedView() sign.Signed {
	return sign.Signed{SignerID: r.i64(), Payload: r.bytesView(), Sig: r.bytesView()}
}

// skipAtt advances past an attestation, checking its count as att does.
func (r *reader) skipAtt() {
	n := int(r.u32())
	if r.err != nil {
		return
	}
	if n < 0 || r.off+8*n > len(r.buf) {
		r.fail()
		return
	}
	r.off += 8 * n
}
