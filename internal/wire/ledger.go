package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Ledger frame types: the envelope internal/ledger persists its DAG nodes
// in, plus the standalone detection frame a fine artifact wraps. The
// envelope nests a complete inner frame (bid, alloc, ...) as its payload,
// so every byte the ledger stores is decodable by this package alone —
// dlsaudit never needs a schema beyond the wire vocabulary.

// HashSize is the width of a ledger content address (SHA-256).
const HashSize = 32

// LedgerRecord is the persisted envelope of one evidence-DAG node: what
// kind of artifact it is (internal/ledger.Kind), which session and
// generation it belongs to, the slot disambiguating submissions inside the
// generation, the content addresses of its DAG parents, and the inner wire
// frame as an opaque payload. The envelope's own canonical encoding is
// what the ledger hashes to mint the node's content address.
type LedgerRecord struct {
	Kind    uint8
	Session uint64
	Gen     uint64
	Slot    int
	Parents [][HashSize]byte
	Payload []byte
}

// AppendLedgerRecord appends the framed envelope to dst.
func AppendLedgerRecord(dst []byte, lr LedgerRecord) []byte {
	return AppendLedgerEnvelope(dst, lr.Kind, lr.Session, lr.Gen, lr.Slot, lr.Parents, lr.Payload)
}

// AppendLedgerEnvelope appends the framed envelope of the given fields to
// dst: the bytes AppendLedgerRecord writes, for callers whose parent
// addresses are a named hash type, without copying them into a LedgerRecord.
func AppendLedgerEnvelope[H ~[HashSize]byte](dst []byte, kind uint8, session, gen uint64, slot int, parents []H, payload []byte) []byte {
	dst, lenAt := appendHeader(dst, TypeLedgerRecord)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, session)
	dst = binary.LittleEndian.AppendUint64(dst, gen)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(slot)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(parents)))
	for _, p := range parents {
		h := [HashSize]byte(p)
		dst = append(dst, h[:]...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return patchLength(dst, lenAt)
}

// DecodeLedgerRecord parses one framed envelope from the front of data.
func DecodeLedgerRecord(data []byte) (LedgerRecord, int, error) {
	r, n, err := openFrame(data, TypeLedgerRecord)
	if err != nil {
		return LedgerRecord{}, 0, err
	}
	lr := LedgerRecord{
		Kind:    r.u8(),
		Session: r.u64(),
		Gen:     r.u64(),
		Slot:    r.i64(),
	}
	np := int(r.u32())
	if r.err == nil && (np < 0 || np*HashSize > len(r.buf)-r.off) {
		r.fail()
	}
	if r.err == nil && np > 0 {
		lr.Parents = make([][HashSize]byte, np)
		for i := range lr.Parents {
			copy(lr.Parents[i][:], r.buf[r.off:r.off+HashSize])
			r.off += HashSize
		}
	}
	lr.Payload = r.bytes()
	if err := r.finish(); err != nil {
		return LedgerRecord{}, 0, err
	}
	return lr, n, nil
}

// AppendDetection appends one framed arbitration outcome to dst. The frame
// is the payload of a fine artifact: the violation that was established,
// who pays the fine F, and who collects the reward.
func AppendDetection(dst []byte, d DetectionRec) []byte {
	dst, lenAt := appendHeader(dst, TypeDetection)
	dst = appendString(dst, d.Violation)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(d.Offender)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(d.Reporter)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Fine))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Reward))
	return patchLength(dst, lenAt)
}

// DecodeDetection parses one framed detection from the front of data.
func DecodeDetection(data []byte) (DetectionRec, int, error) {
	r, n, err := openFrame(data, TypeDetection)
	if err != nil {
		return DetectionRec{}, 0, err
	}
	d := DetectionRec{
		Violation: r.str(),
		Offender:  r.i64(),
		Reporter:  r.i64(),
		Fine:      r.f64(),
		Reward:    r.f64(),
	}
	if err := r.finish(); err != nil {
		return DetectionRec{}, 0, err
	}
	return d, n, nil
}

// JournalEntry is one transfer of a settled round's payment journal: the
// fields a cumulative balance book applies. Amount is non-negative; the
// direction is From → To, and payment.Mechanism (-1) is the mechanism's
// own account.
type JournalEntry struct {
	From, To int
	Amount   float64
}

// journalEntrySize is the encoding of one entry: two int32 accounts and
// the IEEE-754 bits of the amount.
const journalEntrySize = 4 + 4 + 8

// AppendJournal appends the framed journal to dst: the entry count, then
// each entry in journal order. Accounts must fit an int32.
func AppendJournal(dst []byte, entries []JournalEntry) []byte {
	dst = slices.Grow(dst, headerSize+4+journalEntrySize*len(entries))
	dst, lenAt := appendHeader(dst, TypeJournal)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(e.From)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(e.To)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Amount))
	}
	return patchLength(dst, lenAt)
}

// DecodeJournal parses one framed journal from the front of data.
func DecodeJournal(data []byte) ([]JournalEntry, int, error) {
	r, n, err := openFrame(data, TypeJournal)
	if err != nil {
		return nil, 0, err
	}
	count := int(r.u32())
	if r.err == nil && count*journalEntrySize > len(r.buf)-r.off {
		r.fail()
	}
	var entries []JournalEntry
	if r.err == nil && count > 0 {
		entries = make([]JournalEntry, count)
		for i := range entries {
			entries[i] = JournalEntry{
				From:   int(int32(r.u32())),
				To:     int(int32(r.u32())),
				Amount: r.f64(),
			}
		}
	}
	if err := r.finish(); err != nil {
		return nil, 0, err
	}
	return entries, n, nil
}

// LedgerKindName names an internal/ledger.Kind byte for diagnostics without
// importing the ledger package; the two lists are kept in lockstep by the
// ledger's tests.
func LedgerKindName(k uint8) string {
	switch k {
	case 1:
		return "session"
	case 2:
		return "round"
	case 3:
		return "bid"
	case 4:
		return "alloc"
	case 5:
		return "load-ack"
	case 6:
		return "grievance"
	case 7:
		return "bill"
	case 8:
		return "fine"
	case 9:
		return "settle"
	case 10:
		return "void"
	case 11:
		return "journal"
	default:
		return fmt.Sprintf("kind-0x%02x", k)
	}
}
