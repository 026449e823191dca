// Package device implements the two verification devices the DLS-LBL
// mechanism assumes (Sect. 4 of the paper):
//
//   - the tamper-proof meter attached to each processor, which measures the
//     actual per-unit processing time w̃_i and reports it as dsm_0(w̃_i) —
//     a message signed with the root's key, so the owner of the processor
//     cannot alter the measurement; and
//
//   - the data-attestation device Λ_i (footnote 1): the workload is divided
//     into equal-sized blocks, each tagged with a unique random identifier
//     drawn from a space large enough that guessing a valid identifier is
//     negligible. Presenting the identifiers it received lets a processor
//     prove an upper bound on the amount of work that reached it, which is
//     what Phase III grievances need.
package device

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"dlsmech/internal/sign"
	"dlsmech/internal/xrand"
)

// --- Tamper-proof meter -----------------------------------------------------

// MeterReading is dsm_0(w̃_i): the measured execution record of one
// processor, signed by the root's key. The meter observes the computation
// itself, so it certifies both the per-unit time w̃_i and the amount of load
// α̃_i actually computed — the two quantities Phase IV audits need.
type MeterReading struct {
	Proc   int
	WTilde float64
	Load   float64
	Msg    sign.Signed
}

// Meter is the tamper-proof measurement device of one processor. It holds a
// reference to the root's signer — physically, the meter is sealed hardware
// provisioned by the mechanism — and produces root-signed readings.
type Meter struct {
	root *sign.Signer
	proc int
}

// NewMeter seals a meter for processor proc with the root's signing key.
func NewMeter(root *sign.Signer, proc int) *Meter {
	return &Meter{root: root, proc: proc}
}

// meterPayloadSize is the exact byte length of an encoded meter payload.
const meterPayloadSize = 4 + 8 + 8 + 8

// appendMeterPayload appends the canonical byte encoding of a reading — a
// fixed tag, the processor index and the IEEE-754 bits of the measurements —
// to dst. Encoding into a caller-owned (stack) buffer keeps the metering hot
// path allocation-free.
func appendMeterPayload(dst []byte, proc int, wTilde, load float64) []byte {
	var buf [meterPayloadSize]byte
	copy(buf[:], "MTR1")
	binary.LittleEndian.PutUint64(buf[4:], uint64(int64(proc)))
	binary.LittleEndian.PutUint64(buf[12:], math.Float64bits(wTilde))
	binary.LittleEndian.PutUint64(buf[20:], math.Float64bits(load))
	return append(dst, buf[:]...)
}

// meterPayload returns the canonical encoding as a fresh slice.
func meterPayload(proc int, wTilde, load float64) []byte {
	return appendMeterPayload(make([]byte, 0, meterPayloadSize), proc, wTilde, load)
}

// Record measures one execution (per-unit time wTilde over load work units)
// and returns the signed reading. The per-unit time must be positive and
// finite; the load non-negative.
func (m *Meter) Record(wTilde, load float64) (MeterReading, error) {
	if !(wTilde > 0) || math.IsInf(wTilde, 0) {
		return MeterReading{}, fmt.Errorf("device: invalid meter value %v", wTilde)
	}
	if !(load >= 0) || math.IsInf(load, 0) {
		return MeterReading{}, fmt.Errorf("device: invalid metered load %v", load)
	}
	// The payload lives on the stack and the signature comes from the root
	// signer's memo: a re-measurement of the same (proc, w̃, load) triple —
	// every round of a steady-state session — costs a map hit, not an
	// ed25519 signing.
	var buf [meterPayloadSize]byte
	payload := appendMeterPayload(buf[:0], m.proc, wTilde, load)
	return MeterReading{
		Proc:   m.proc,
		WTilde: wTilde,
		Load:   load,
		Msg:    m.root.SignMemo(payload),
	}, nil
}

// Errors returned by verification.
var (
	ErrMeterSignature = errors.New("device: meter reading signature invalid")
	ErrMeterMismatch  = errors.New("device: meter reading fields do not match payload")
)

// VerifyReading checks a reading against the PKI: the signature must verify
// under the root's registered key (rootID) and the plain fields must match
// the signed payload. Anyone holding the PKI can run this — that is what
// makes meter readings usable as evidence.
func VerifyReading(pki *sign.PKI, rootID int, r MeterReading) error {
	if r.Msg.SignerID != rootID {
		return fmt.Errorf("%w: signed by %d, want root %d", ErrMeterSignature, r.Msg.SignerID, rootID)
	}
	if err := pki.Verify(r.Msg); err != nil {
		return fmt.Errorf("%w: %v", ErrMeterSignature, err)
	}
	var buf [meterPayloadSize]byte
	want := appendMeterPayload(buf[:0], r.Proc, r.WTilde, r.Load)
	if !bytes.Equal(want, r.Msg.Payload) {
		return ErrMeterMismatch
	}
	return nil
}

// --- Λ data-attestation device ----------------------------------------------

// Block is the unique identifier of one data block.
type Block uint64

// Attestation is Λ_i: the identifiers of the blocks a processor received.
// Amount(unit) = len(Blocks)·unit is the provable upper bound on received
// work.
type Attestation struct {
	Blocks []Block
}

// Amount returns the work quantity the attestation covers given the issuer's
// block unit.
func (a Attestation) Amount(unit float64) float64 {
	return float64(len(a.Blocks)) * unit
}

// Split divides the attestation into a head covering floor(amount/unit)
// blocks and the remaining tail. It models a processor retaining part of the
// received data and forwarding the rest: the block identifiers travel with
// the data, and rounding down the retained head guarantees the forwarded
// tail still covers at least the shipped quantity.
// Split panics if the attestation has too few blocks.
func (a Attestation) Split(amount, unit float64) (head, tail Attestation) {
	nb := int(math.Floor(amount/unit + 1e-9))
	if nb < 0 {
		nb = 0
	}
	if nb > len(a.Blocks) {
		panic(fmt.Sprintf("device: split %d blocks of %d", nb, len(a.Blocks)))
	}
	return Attestation{Blocks: a.Blocks[:nb]}, Attestation{Blocks: a.Blocks[nb:]}
}

// Clone deep-copies the attestation (evidence must be immutable).
func (a Attestation) Clone() Attestation {
	return Attestation{Blocks: append([]Block(nil), a.Blocks...)}
}

// issuerSlot is one open-addressed table cell: a minted identifier plus the
// Verify-call generation that last saw it (duplicate detection).
type issuerSlot struct {
	id   Block
	used bool
	seen uint64
}

// Issuer mints block identifiers on behalf of the root during data
// preparation and later verifies attestations. It is safe for concurrent
// use, and it is reusable: Reset starts a fresh mint epoch while keeping the
// table storage warm, which is what lets a long-running protocol session
// mint every round without rebuilding the identifier registry.
//
// The registry is a linear-probed open-addressed table rather than a Go map:
// a steady-state daemon round mints thousands of identifiers and probes
// thousands more during audits, and the general map's hashing and bucket
// bookkeeping made the Λ device one of the hottest rows of a served-round
// profile. Identifiers are uniform random 64-bit values minted by the issuer
// itself, so a multiplicative mix of the identifier is a sound hash — an
// adversary cannot choose minted identifiers, only replay or guess them.
type Issuer struct {
	unit float64
	rng  *xrand.Rand

	mu    sync.Mutex
	slots []issuerSlot // power-of-two length; empty when unused
	live  int          // identifiers minted in the current epoch
	gen   uint64       // Verify-call generation for duplicate stamps
}

// NewIssuer creates an issuer with the given block unit (the work quantity
// one block represents). Identifiers are drawn from the full 64-bit space.
func NewIssuer(unit float64, rng *xrand.Rand) (*Issuer, error) {
	if !(unit > 0) || math.IsInf(unit, 0) {
		return nil, fmt.Errorf("device: invalid block unit %v", unit)
	}
	return &Issuer{unit: unit, rng: rng}, nil
}

// Unit returns the work quantity of one block.
func (iss *Issuer) Unit() float64 { return iss.unit }

// Reset invalidates every previously minted identifier and starts a new mint
// epoch. Table storage is retained (one bulk clear, no reallocation), so the
// next round's Mint refills warm cells instead of growing a fresh table.
// rng, if not nil, becomes the source of the identifiers minted from now on,
// so a caller that seeds each epoch on its own keeps the table warm too.
func (iss *Issuer) Reset(rng *xrand.Rand) {
	iss.mu.Lock()
	defer iss.mu.Unlock()
	if rng != nil {
		iss.rng = rng
	}
	clear(iss.slots)
	iss.live = 0
	iss.gen = 0
}

// slotIndex mixes an identifier into a table index. Fibonacci multiplicative
// hashing is enough: minted identifiers are uniform random 64-bit values.
func slotIndex(id Block, mask uint64) uint64 {
	return (uint64(id) * 0x9e3779b97f4a7c15) >> 1 & mask
}

// lookup returns the cell holding id, or nil. Caller holds iss.mu.
func (iss *Issuer) lookup(id Block) *issuerSlot {
	if len(iss.slots) == 0 {
		return nil
	}
	mask := uint64(len(iss.slots) - 1)
	for i := slotIndex(id, mask); ; i = (i + 1) & mask {
		s := &iss.slots[i]
		if !s.used {
			return nil
		}
		if s.id == id {
			return s
		}
	}
}

// insert adds id to the table, reporting false when it is already present.
// Caller holds iss.mu and has ensured spare capacity.
func (iss *Issuer) insert(id Block) bool {
	mask := uint64(len(iss.slots) - 1)
	for i := slotIndex(id, mask); ; i = (i + 1) & mask {
		s := &iss.slots[i]
		if !s.used {
			*s = issuerSlot{id: id, used: true}
			iss.live++
			return true
		}
		if s.id == id {
			return false
		}
	}
}

// ensure grows the table so that live+need identifiers keep the load factor
// at or below 1/2. Live identifiers are rehashed into the new table; their
// duplicate stamps carry over. Caller holds iss.mu.
func (iss *Issuer) ensure(need int) {
	want := 2 * (iss.live + need)
	if want <= len(iss.slots) {
		return
	}
	size := 64
	for size < want {
		size *= 2
	}
	old := iss.slots
	iss.slots = make([]issuerSlot, size)
	mask := uint64(size - 1)
	for i := range old {
		if !old[i].used {
			continue
		}
		for j := slotIndex(old[i].id, mask); ; j = (j + 1) & mask {
			if !iss.slots[j].used {
				iss.slots[j] = old[i]
				break
			}
		}
	}
}

// Mint creates the attestation covering total work units — ceil(total/unit)
// fresh random identifiers. The root calls this once per job and ships the
// blocks with the load.
func (iss *Issuer) Mint(total float64) (Attestation, error) {
	return iss.MintInto(nil, total)
}

// MintInto is Mint appending into a caller-owned buffer (reused via
// blocks[:0] across rounds), so the per-round identifier slice — tens of
// kilobytes at fine block units — is allocated once per session, not once
// per round.
func (iss *Issuer) MintInto(blocks []Block, total float64) (Attestation, error) {
	if !(total >= 0) || math.IsInf(total, 0) {
		return Attestation{}, fmt.Errorf("device: invalid total %v", total)
	}
	nb := int(math.Ceil(total/iss.unit - 1e-12))
	iss.mu.Lock()
	defer iss.mu.Unlock()
	iss.ensure(nb)
	start := len(blocks)
	for len(blocks)-start < nb {
		id := Block(iss.rng.Uint64())
		if !iss.insert(id) {
			continue // astronomically unlikely duplicate; regenerate
		}
		blocks = append(blocks, id)
	}
	return Attestation{Blocks: blocks[start:]}, nil
}

// Errors returned by attestation verification.
var (
	ErrForgedBlock    = errors.New("device: attestation contains unminted block")
	ErrDuplicateBlock = errors.New("device: attestation repeats a block")
)

// Verify checks an attestation: every identifier must have been minted and
// none may repeat. It returns the work amount the attestation proves.
// Successful verification allocates nothing: the duplicate check rides as a
// generation stamp on the identifier's own table cell.
func (iss *Issuer) Verify(a Attestation) (float64, error) {
	iss.mu.Lock()
	defer iss.mu.Unlock()
	iss.gen++
	gen := iss.gen
	for _, b := range a.Blocks {
		s := iss.lookup(b)
		if s == nil {
			return 0, fmt.Errorf("%w: %d", ErrForgedBlock, uint64(b))
		}
		if s.seen == gen {
			return 0, fmt.Errorf("%w: %d", ErrDuplicateBlock, uint64(b))
		}
		s.seen = gen
	}
	return a.Amount(iss.unit), nil
}
