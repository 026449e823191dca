package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dlsmech/internal/device"
	"dlsmech/internal/sign"
)

// Errors returned by the decoder.
var (
	ErrTruncated  = errors.New("wire: truncated frame")
	ErrBadMagic   = errors.New("wire: bad frame magic")
	ErrBadVersion = errors.New("wire: unsupported wire version")
	ErrBadType    = errors.New("wire: unexpected message type")
	ErrBadLength  = errors.New("wire: frame length does not match body")
)

// headerSize is magic(3) + version(1) + type(1) + body length(4).
const headerSize = 3 + 1 + 1 + 4

// minSignedSize is the smallest encoding of a sign.Signed (empty payload and
// signature). Count fields are validated against it so a corrupt count can
// never provoke an allocation larger than the input itself.
const minSignedSize = 8 + 4 + 4

// appendHeader writes the frame header with a placeholder body length and
// returns the offset of the length field.
func appendHeader(dst []byte, t MsgType) ([]byte, int) {
	dst = append(dst, 'D', 'L', 'S', Version, byte(t))
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	return dst, lenAt
}

// patchLength backfills the body length once the body has been appended.
func patchLength(dst []byte, lenAt int) []byte {
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

// Peek reports the message type of the frame at the front of data without
// decoding the body.
func Peek(data []byte) (MsgType, error) {
	if len(data) < headerSize {
		return 0, ErrTruncated
	}
	if data[0] != 'D' || data[1] != 'L' || data[2] != 'S' {
		return 0, ErrBadMagic
	}
	if data[3] != Version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, data[3])
	}
	switch t := MsgType(data[4]); t {
	case TypeBid, TypeAlloc, TypeLoad, TypeBill, TypeGrievance,
		TypeHello, TypeHelloAck, TypeRound, TypeRoundResult, TypeSrvError,
		TypeStream, TypeStreamEnd,
		TypeLedgerRecord, TypeDetection, TypeJournal, TypeStoredBill, TypeStoredLoad:
		return t, nil
	default:
		return 0, fmt.Errorf("%w: 0x%02x", ErrBadType, data[4])
	}
}

// reader is a bounds-checked cursor over one frame body.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int     { return int(int64(r.u64())) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// bytes reads a length-prefixed byte string. The length is validated against
// the bytes actually present before any allocation happens.
func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil // canonical: empty encodes like the zero value
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

// --- sign.Signed ------------------------------------------------------------

func appendSigned(dst []byte, s sign.Signed) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(s.SignerID)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Payload)))
	dst = append(dst, s.Payload...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Sig)))
	dst = append(dst, s.Sig...)
	return dst
}

func (r *reader) signed() sign.Signed {
	return sign.Signed{SignerID: r.i64(), Payload: r.bytes(), Sig: r.bytes()}
}

// --- device.Attestation -----------------------------------------------------

func appendAtt(dst []byte, a device.Attestation) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Blocks)))
	for _, b := range a.Blocks {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(b))
	}
	return dst
}

func (r *reader) att() device.Attestation {
	n := int(r.u32())
	if r.err != nil {
		return device.Attestation{}
	}
	if n < 0 || r.off+8*n > len(r.buf) {
		r.fail()
		return device.Attestation{}
	}
	if n == 0 {
		return device.Attestation{}
	}
	blocks := make([]device.Block, n)
	for i := range blocks {
		blocks[i] = device.Block(r.u64())
	}
	return device.Attestation{Blocks: blocks}
}

// --- device.MeterReading ----------------------------------------------------

func appendMeter(dst []byte, m device.MeterReading) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(m.Proc)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.WTilde))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Load))
	return appendSigned(dst, m.Msg)
}

func (r *reader) meter() device.MeterReading {
	return device.MeterReading{Proc: r.i64(), WTilde: r.f64(), Load: r.f64(), Msg: r.signed()}
}

// --- message bodies ----------------------------------------------------------

func appendAllocBody(dst []byte, g Alloc) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(g.To)))
	dst = appendSigned(dst, g.PrevLoad)
	dst = appendSigned(dst, g.Load)
	dst = appendSigned(dst, g.PrevEquiv)
	dst = appendSigned(dst, g.PrevBid)
	return appendSigned(dst, g.EchoEquiv)
}

func (r *reader) allocBody() Alloc {
	return Alloc{
		To:        r.i64(),
		PrevLoad:  r.signed(),
		Load:      r.signed(),
		PrevEquiv: r.signed(),
		PrevBid:   r.signed(),
		EchoEquiv: r.signed(),
	}
}

func appendProof(dst []byte, p Proof) []byte {
	dst = appendBool(dst, p.HasSucc)
	dst = appendAllocBody(dst, p.G)
	dst = appendSigned(dst, p.SuccBid)
	dst = appendSigned(dst, p.OwnBid)
	dst = appendMeter(dst, p.Meter)
	return appendAtt(dst, p.Att)
}

func (r *reader) proof() Proof {
	hasSucc := r.bool()
	return Proof{
		HasSucc: hasSucc,
		G:       r.allocBody(),
		SuccBid: r.signed(),
		OwnBid:  r.signed(),
		Meter:   r.meter(),
		Att:     r.att(),
	}
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// bool rejects any encoding other than 0 or 1, keeping frames canonical.
func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wire: non-canonical bool")
		}
		return false
	}
}

// --- public codec ------------------------------------------------------------

// AppendBid appends the framed Phase I message to dst.
func AppendBid(dst []byte, b Bid) []byte {
	dst, lenAt := appendHeader(dst, TypeBid)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(b.From)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Signed)))
	for _, s := range b.Signed {
		dst = appendSigned(dst, s)
	}
	return patchLength(dst, lenAt)
}

// AppendAlloc appends the framed Phase II message to dst.
func AppendAlloc(dst []byte, g Alloc) []byte {
	dst, lenAt := appendHeader(dst, TypeAlloc)
	dst = appendAllocBody(dst, g)
	return patchLength(dst, lenAt)
}

// AppendLoad appends the framed Phase III message to dst.
func AppendLoad(dst []byte, l Load) []byte {
	dst, lenAt := appendHeader(dst, TypeLoad)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(l.Amount))
	dst = appendBool(dst, l.Corrupted)
	dst = appendAtt(dst, l.Att)
	return patchLength(dst, lenAt)
}

// AppendBill appends the framed Phase IV message to dst.
func AppendBill(dst []byte, b Bill) []byte {
	dst, lenAt := appendHeader(dst, TypeBill)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(b.From)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Compensation))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Recompense))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Bonus))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Solution))
	dst = appendProof(dst, b.Proof)
	return patchLength(dst, lenAt)
}

// AppendGrievance appends the framed accusation bundle to dst.
func AppendGrievance(dst []byte, gr Grievance) []byte {
	dst, lenAt := appendHeader(dst, TypeGrievance)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(gr.Reporter)))
	dst = appendAllocBody(dst, gr.G)
	dst = appendAtt(dst, gr.Att)
	dst = appendMeter(dst, gr.Meter)
	return patchLength(dst, lenAt)
}

// openFrame validates the header against want and returns the body reader
// plus the total frame size.
func openFrame(data []byte, want MsgType) (*reader, int, error) {
	body, n, err := frameBody(data, want)
	if err != nil {
		return nil, 0, err
	}
	return &reader{buf: body}, n, nil
}

// frameBody validates the header against want and returns the body plus
// the total frame size.
func frameBody(data []byte, want MsgType) ([]byte, int, error) {
	t, err := Peek(data)
	if err != nil {
		return nil, 0, err
	}
	if t != want {
		return nil, 0, fmt.Errorf("%w: have %s, want %s", ErrBadType, t, want)
	}
	bodyLen := int(binary.LittleEndian.Uint32(data[5:]))
	if bodyLen < 0 || headerSize+bodyLen > len(data) {
		return nil, 0, ErrTruncated
	}
	return data[headerSize : headerSize+bodyLen], headerSize + bodyLen, nil
}

// finish enforces that the body was consumed exactly — a frame with trailing
// body bytes is non-canonical and rejected.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return ErrBadLength
	}
	return nil
}

// DecodeBid parses one framed Bid from the front of data and returns the
// number of bytes consumed.
func DecodeBid(data []byte) (Bid, int, error) {
	r, n, err := openFrame(data, TypeBid)
	if err != nil {
		return Bid{}, 0, err
	}
	b := Bid{From: r.i64()}
	count := int(r.u32())
	if r.err == nil && (count < 0 || count*minSignedSize > len(r.buf)-r.off) {
		r.fail()
	}
	if r.err == nil && count > 0 {
		b.Signed = make([]sign.Signed, count)
		for i := range b.Signed {
			b.Signed[i] = r.signed()
		}
	}
	if err := r.finish(); err != nil {
		return Bid{}, 0, err
	}
	return b, n, nil
}

// DecodeAlloc parses one framed Alloc from the front of data.
func DecodeAlloc(data []byte) (Alloc, int, error) {
	r, n, err := openFrame(data, TypeAlloc)
	if err != nil {
		return Alloc{}, 0, err
	}
	g := r.allocBody()
	if err := r.finish(); err != nil {
		return Alloc{}, 0, err
	}
	return g, n, nil
}

// DecodeLoad parses one framed Load from the front of data.
func DecodeLoad(data []byte) (Load, int, error) {
	r, n, err := openFrame(data, TypeLoad)
	if err != nil {
		return Load{}, 0, err
	}
	l := Load{Amount: r.f64(), Corrupted: r.bool(), Att: r.att()}
	if err := r.finish(); err != nil {
		return Load{}, 0, err
	}
	return l, n, nil
}

// DecodeBill parses one framed Bill from the front of data.
func DecodeBill(data []byte) (Bill, int, error) {
	r, n, err := openFrame(data, TypeBill)
	if err != nil {
		return Bill{}, 0, err
	}
	b := Bill{
		From:         r.i64(),
		Compensation: r.f64(),
		Recompense:   r.f64(),
		Bonus:        r.f64(),
		Solution:     r.f64(),
		Proof:        r.proof(),
	}
	if err := r.finish(); err != nil {
		return Bill{}, 0, err
	}
	return b, n, nil
}

// DecodeGrievance parses one framed Grievance from the front of data.
func DecodeGrievance(data []byte) (Grievance, int, error) {
	r, n, err := openFrame(data, TypeGrievance)
	if err != nil {
		return Grievance{}, 0, err
	}
	gr := Grievance{Reporter: r.i64(), G: r.allocBody(), Att: r.att(), Meter: r.meter()}
	if err := r.finish(); err != nil {
		return Grievance{}, 0, err
	}
	return gr, n, nil
}
