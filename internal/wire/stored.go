package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"dlsmech/internal/device"
)

// Stored evidence frames: how the evidence ledger keeps a Phase IV bill
// and a Phase III receipt whose sections repeat bytes another artifact of
// the same generation already holds. Each repeated section is replaced by
// a reference naming the artifact (by ledger kind and slot) and the
// section of it (the field); the record holding the frame lists the
// referenced records' content addresses as its parents, one per
// reference, in reference order, after the round-open. ExpandStored
// rebuilds the exact bill or load frame the stored one stands for.

// RefField names the section of an artifact a reference re-uses.
type RefField uint8

const (
	// RefAlloc is an alloc artifact's whole body: a bill's G_j.
	RefAlloc RefField = 1
	// RefAllocPrevBid is an alloc artifact's PrevBid: a bill's own bid,
	// which G_{j+1} carries as dsm_j(w_j).
	RefAllocPrevBid RefField = 2
	// RefBidSigned is a bid artifact's one signature: a bill's successor
	// bid.
	RefBidSigned RefField = 3
	// RefLoadAtt is a load ack's Λ from Offset on: a bill's Λ_j, or the
	// Λ_{i+1} forwarded as the tail of Λ_i.
	RefLoadAtt RefField = 4
)

// Ledger kinds a reference can name (internal/ledger.Kind values).
const (
	refKindBid     uint8 = 3
	refKindAlloc   uint8 = 4
	refKindLoadAck uint8 = 5
)

// Kind returns the ledger kind of artifact that holds the field.
func (f RefField) Kind() uint8 {
	switch f {
	case RefAlloc, RefAllocPrevBid:
		return refKindAlloc
	case RefBidSigned:
		return refKindBid
	case RefLoadAtt:
		return refKindLoadAck
	}
	return 0
}

func (f RefField) String() string {
	switch f {
	case RefAlloc:
		return "alloc"
	case RefAllocPrevBid:
		return "alloc.PrevBid"
	case RefBidSigned:
		return "bid.Signed"
	case RefLoadAtt:
		return "load.Att"
	}
	return fmt.Sprintf("field-0x%02x", uint8(f))
}

// LedgerRef names the bytes a stored frame re-uses: the Field section of
// the artifact of ledger kind Kind at Slot of the same generation, and for
// an attestation the suffix of it from block Offset on. The zero LedgerRef
// (Field 0) stands for a section stored literally.
type LedgerRef struct {
	Kind   uint8
	Field  RefField
	Slot   int
	Offset int
}

// IsSet reports whether r is a reference, not a literal section.
func (r LedgerRef) IsSet() bool { return r.Field != 0 }

func (r LedgerRef) String() string {
	s := fmt.Sprintf("%s slot %d %s", LedgerKindName(r.Kind), r.Slot, r.Field)
	if r.Offset != 0 {
		s += fmt.Sprintf(" from block %d", r.Offset)
	}
	return s
}

// refSize is one encoded reference: kind, field, u32 slot, u32 offset.
const refSize = 1 + 1 + 4 + 4

func appendRef(dst []byte, r LedgerRef) []byte {
	dst = append(dst, r.Kind, byte(r.Field))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Slot))
	return binary.LittleEndian.AppendUint32(dst, uint32(r.Offset))
}

// ref reads one reference and requires it to name field want, the ledger
// kind that holds it, and no offset unless it names an attestation.
func (r *reader) ref(want RefField) LedgerRef {
	if r.err != nil || r.off+refSize > len(r.buf) {
		r.fail()
		return LedgerRef{}
	}
	b := r.buf[r.off:]
	ref := LedgerRef{
		Kind:   b[0],
		Field:  RefField(b[1]),
		Slot:   int(binary.LittleEndian.Uint32(b[2:])),
		Offset: int(binary.LittleEndian.Uint32(b[6:])),
	}
	r.off += refSize
	switch {
	case ref.Field != want:
		r.err = fmt.Errorf("wire: reference names %s where %s belongs", ref.Field, want)
	case ref.Kind != want.Kind():
		r.err = fmt.Errorf("wire: reference names a %s record for %s", LedgerKindName(ref.Kind), want)
	case ref.Offset != 0 && want != RefLoadAtt:
		r.err = fmt.Errorf("wire: reference to %s carries an offset", want)
	}
	return ref
}

// The re-embedded sections of a bill's proof, in encoding order, as
// BillRefs indexes them.
const (
	BillG       = iota // Proof.G: alloc(j)
	BillSuccBid        // Proof.SuccBid: bid(j+1)
	BillOwnBid         // Proof.OwnBid: alloc(j+1).PrevBid
	BillAtt            // Proof.Att: load-ack(j)
	billSections
)

// billFields is the field each bill section may reference.
var billFields = [billSections]RefField{RefAlloc, RefBidSigned, RefAllocPrevBid, RefLoadAtt}

// BillRefs holds a stored bill's references, one per section; a zero
// entry is a literal section.
type BillRefs [billSections]LedgerRef

// StoredBill is a Phase IV bill as the evidence ledger stores it: Bill's
// literal sections plus a reference for each section in Refs. Encoding
// skips Bill's referenced sections; decoding leaves them zero. At least
// one section is a reference: a bill with none is stored as a plain bill
// frame.
type StoredBill struct {
	Bill Bill
	Refs BillRefs
}

// AppendStoredBill appends the framed stored bill to dst: the bill's
// From and four amounts, HasSucc, a byte whose bit k says section k is a
// reference, then G, SuccBid, OwnBid, the meter reading and Λ in the
// bill's order, each section as its reference or its literal encoding.
func AppendStoredBill(dst []byte, sb *StoredBill) []byte {
	b := &sb.Bill
	dst, lenAt := appendHeader(dst, TypeStoredBill)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(b.From)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Compensation))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Recompense))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Bonus))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Solution))
	dst = appendBool(dst, b.Proof.HasSucc)
	var mask byte
	for k, r := range sb.Refs {
		if r.IsSet() {
			mask |= 1 << k
		}
	}
	dst = append(dst, mask)
	if r := sb.Refs[BillG]; r.IsSet() {
		dst = appendRef(dst, r)
	} else {
		dst = appendAllocBody(dst, b.Proof.G)
	}
	if r := sb.Refs[BillSuccBid]; r.IsSet() {
		dst = appendRef(dst, r)
	} else {
		dst = appendSigned(dst, b.Proof.SuccBid)
	}
	if r := sb.Refs[BillOwnBid]; r.IsSet() {
		dst = appendRef(dst, r)
	} else {
		dst = appendSigned(dst, b.Proof.OwnBid)
	}
	dst = appendMeter(dst, b.Proof.Meter)
	if r := sb.Refs[BillAtt]; r.IsSet() {
		dst = appendRef(dst, r)
	} else {
		dst = appendAtt(dst, b.Proof.Att)
	}
	return patchLength(dst, lenAt)
}

// storedMask reads a stored bill's section mask: non-zero, and no bit
// beyond the four sections.
func (r *reader) storedMask() byte {
	mask := r.u8()
	if r.err == nil && (mask == 0 || mask >= 1<<billSections) {
		r.err = fmt.Errorf("wire: stored bill section mask 0x%02x", mask)
	}
	return mask
}

// DecodeStoredBill parses one framed stored bill from the front of data.
func DecodeStoredBill(data []byte) (StoredBill, int, error) {
	r, n, err := openFrame(data, TypeStoredBill)
	if err != nil {
		return StoredBill{}, 0, err
	}
	var sb StoredBill
	b := &sb.Bill
	b.From = r.i64()
	b.Compensation = r.f64()
	b.Recompense = r.f64()
	b.Bonus = r.f64()
	b.Solution = r.f64()
	b.Proof.HasSucc = r.bool()
	mask := r.storedMask()
	if mask&(1<<BillG) != 0 {
		sb.Refs[BillG] = r.ref(RefAlloc)
	} else {
		b.Proof.G = r.allocBody()
	}
	if mask&(1<<BillSuccBid) != 0 {
		sb.Refs[BillSuccBid] = r.ref(RefBidSigned)
	} else {
		b.Proof.SuccBid = r.signed()
	}
	if mask&(1<<BillOwnBid) != 0 {
		sb.Refs[BillOwnBid] = r.ref(RefAllocPrevBid)
	} else {
		b.Proof.OwnBid = r.signed()
	}
	b.Proof.Meter = r.meter()
	if mask&(1<<BillAtt) != 0 {
		sb.Refs[BillAtt] = r.ref(RefLoadAtt)
	} else {
		b.Proof.Att = r.att()
	}
	if err := r.finish(); err != nil {
		return StoredBill{}, 0, err
	}
	return sb, n, nil
}

// StoredLoad is a Phase III receipt as the evidence ledger stores it when
// its Λ is the tail of another load ack's: the amount and corruption
// marker, and a reference for the Λ. Load.Att is not encoded.
type StoredLoad struct {
	Load Load
	Ref  LedgerRef
}

// AppendStoredLoad appends the framed stored receipt to dst.
func AppendStoredLoad(dst []byte, sl *StoredLoad) []byte {
	dst, lenAt := appendHeader(dst, TypeStoredLoad)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sl.Load.Amount))
	dst = appendBool(dst, sl.Load.Corrupted)
	dst = appendRef(dst, sl.Ref)
	return patchLength(dst, lenAt)
}

// DecodeStoredLoad parses one framed stored receipt from the front of
// data.
func DecodeStoredLoad(data []byte) (StoredLoad, int, error) {
	r, n, err := openFrame(data, TypeStoredLoad)
	if err != nil {
		return StoredLoad{}, 0, err
	}
	sl := StoredLoad{Load: Load{Amount: r.f64(), Corrupted: r.bool()}}
	sl.Ref = r.ref(RefLoadAtt)
	if err := r.finish(); err != nil {
		return StoredLoad{}, 0, err
	}
	return sl, n, nil
}

// ExpandStored returns the wire frame a stored artifact payload stands
// for, appended to dst: a stored bill or receipt rebuilt, byte for byte,
// from its literal sections and the sections its references name; any
// other frame copied unchanged. referent(k) returns the wire frame (itself
// expanded) of the artifact the k-th reference resolves to; it is called
// once per reference, in reference order.
func ExpandStored(dst, data []byte, referent func(k int) ([]byte, error)) ([]byte, error) {
	t, err := Peek(data)
	if err != nil {
		return nil, err
	}
	switch t {
	case TypeStoredBill:
		sb, _, err := DecodeStoredBill(data)
		if err != nil {
			return nil, err
		}
		k := 0
		for s, ref := range sb.Refs {
			if !ref.IsSet() {
				continue
			}
			frame, err := referent(k)
			k++
			if err != nil {
				return nil, err
			}
			if err := fillSection(&sb.Bill.Proof, s, ref, frame); err != nil {
				return nil, fmt.Errorf("%s: %w", ref, err)
			}
		}
		return AppendBill(dst, sb.Bill), nil
	case TypeStoredLoad:
		sl, _, err := DecodeStoredLoad(data)
		if err != nil {
			return nil, err
		}
		frame, err := referent(0)
		if err != nil {
			return nil, err
		}
		if sl.Load.Att, err = refAtt(sl.Ref, frame); err != nil {
			return nil, fmt.Errorf("%s: %w", sl.Ref, err)
		}
		return AppendLoad(dst, sl.Load), nil
	}
	return append(dst, data...), nil
}

// fillSection sets bill proof section s from the referent frame.
func fillSection(p *Proof, s int, ref LedgerRef, frame []byte) error {
	switch s {
	case BillG:
		g, _, err := DecodeAlloc(frame)
		p.G = g
		return err
	case BillSuccBid:
		b, _, err := DecodeBid(frame)
		if err != nil {
			return err
		}
		if len(b.Signed) != 1 {
			return fmt.Errorf("bid holds %d signatures, not one", len(b.Signed))
		}
		p.SuccBid = b.Signed[0]
	case BillOwnBid:
		g, _, err := DecodeAlloc(frame)
		p.OwnBid = g.PrevBid
		return err
	case BillAtt:
		att, err := refAtt(ref, frame)
		p.Att = att
		return err
	}
	return nil
}

// refAtt returns the suffix of a load frame's Λ that ref names.
func refAtt(ref LedgerRef, frame []byte) (device.Attestation, error) {
	l, _, err := DecodeLoad(frame)
	if err != nil {
		return device.Attestation{}, err
	}
	if ref.Offset > len(l.Att.Blocks) {
		return device.Attestation{}, fmt.Errorf("offset %d beyond a Λ of %d blocks", ref.Offset, len(l.Att.Blocks))
	}
	if rest := l.Att.Blocks[ref.Offset:]; len(rest) > 0 {
		return device.Attestation{Blocks: rest}, nil
	}
	return device.Attestation{}, nil
}

// LoadAttLen returns the number of Λ blocks a load frame holds, or -1 if
// data is too short to say. It reads the count only: the frame's shape is
// the caller's to have checked (VisitSigned).
func LoadAttLen(data []byte) int {
	const at = headerSize + 8 + 1 // Amount, Corrupted
	if len(data) < at+4 {
		return -1
	}
	return int(binary.LittleEndian.Uint32(data[at:]))
}

// BidSignatures returns the number of signatures a bid frame holds, or -1
// if data is too short to say; like LoadAttLen, it reads the count only.
func BidSignatures(data []byte) int {
	const at = headerSize + 8 // From
	if len(data) < at+4 {
		return -1
	}
	return int(binary.LittleEndian.Uint32(data[at:]))
}
