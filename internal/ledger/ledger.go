// Package ledger is the mechanism's durable evidence store: a
// content-addressed, hash-linked DAG in which every signed artifact a round
// produces — bids, allocation frames, load acknowledgements, grievances,
// bills, fines, and the settlement itself — is serialized with the
// internal/wire codec, keyed by the SHA-256 of its encoded envelope, and
// linked to its parents. The layout follows the DLT DAG-database shape:
//
//	session ── round-open(1) ── round-open(2) ── ...      (the spine)
//	               │ ▲
//	   bid/alloc/load-ack/grievance/bill/fine/journal  (parent: the round-open)
//	               │
//	            settle  (parents: round-open + every artifact, sorted)
//
// A bill or load ack that repeats bytes an earlier artifact of its
// generation holds stores a reference instead (wire.StoredBill,
// wire.StoredLoad), and the referent is an extra parent after the
// round-open:
//
//	load-ack(i+1) ──► load-ack(i)      Λ_{i+1}: the tail of Λ_i
//	bill(j) ──► alloc(j), bid(j+1), alloc(j+1), load-ack(j)
//	            G_j       succ bid  own bid     Λ_j
//
// The settle record's parent set is a commitment to the round's complete
// evidence: removing an artifact from the log breaks a parent link, and a
// forged artifact changes its content address, which both orphans the old
// hash in the settle's parent set and collides with the original on the
// (session, generation, slot, kind) conflict key. Conflicting
// double-submissions — two different records for the same conflict key —
// are detected as forks, the way a DAG ledger detects double-spends, and
// both branches are retained as evidence.
//
// Storage is pluggable via Backend: MemBackend for tests, FileBackend
// (append-only segment log with an index) for the daemon. Records are
// always appended parents-first, and the FileBackend's file is always a
// prefix of the append order, so a crash that truncates the log tail loses
// only records appended since the last Sync — the unacknowledged evidence
// of the rounds then in flight, possibly several of them, possibly their
// round-open records too — and never orphans an interior record. That is
// what makes crash→reload→resume sound (see internal/server's recovery).
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"dlsmech/internal/obs"
	"dlsmech/internal/wire"
)

// Hash is a record's content address: the SHA-256 of its encoded envelope.
type Hash [wire.HashSize]byte

// zeroHash is the absent-hash sentinel.
var zeroHash Hash

// IsZero reports whether h is the absent sentinel.
func (h Hash) IsZero() bool { return h == zeroHash }

// String renders the full hex address.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short renders the first 8 bytes, for diagnostics.
func (h Hash) Short() string { return hex.EncodeToString(h[:8]) }

// Kind tags what a DAG node holds. The byte values are persisted inside
// every envelope and must never be renumbered; wire.LedgerKindName mirrors
// them for diagnostics.
type Kind uint8

const (
	KindSession   Kind = 1  // wire.Hello — the session head, no parents
	KindRound     Kind = 2  // wire.Round — a generation's opening request
	KindBid       Kind = 3  // wire.Bid — one processor's Phase I commitment
	KindAlloc     Kind = 4  // wire.Alloc — G_i as built in Phase II
	KindLoadAck   Kind = 5  // wire.Load or wire.StoredLoad — Phase III receipt with Λ attestation
	KindGrievance Kind = 6  // wire.Grievance — an overload accusation
	KindBill      Kind = 7  // wire.Bill or wire.StoredBill — a Phase IV bill with proof bundle
	KindFine      Kind = 8  // wire.DetectionRec — one arbitration outcome
	KindSettle    Kind = 9  // wire.RoundResult — the round's durable outcome
	KindVoid      Kind = 10 // wire.SrvError — the round was abandoned, evidence intact
	KindJournal   Kind = 11 // wire journal — the settled round's transfers, committed by its settle
)

// String names the kind.
func (k Kind) String() string { return wire.LedgerKindName(uint8(k)) }

// Record is one DAG node before encoding. Slot disambiguates submissions
// within a generation (the bidder/receiver/biller index; the detection
// ordinal for fines; 0 for spine records): (Session, Gen, Slot, Kind) is
// the conflict key under which double-submissions become forks.
type Record struct {
	Kind    Kind
	Session uint64
	Gen     uint64
	Slot    int
	Parents []Hash
	Payload []byte
}

// appendRecord encodes the envelope into dst.
func appendRecord(dst []byte, rec Record) []byte {
	return wire.AppendLedgerEnvelope(dst, uint8(rec.Kind), rec.Session, rec.Gen, rec.Slot, rec.Parents, rec.Payload)
}

// decodeRecord parses one encoded envelope.
func decodeRecord(frame []byte) (Record, error) {
	lr, n, err := wire.DecodeLedgerRecord(frame)
	if err != nil {
		return Record{}, err
	}
	if n != len(frame) {
		return Record{}, fmt.Errorf("ledger: %d trailing bytes after envelope", len(frame)-n)
	}
	rec := Record{
		Kind:    Kind(lr.Kind),
		Session: lr.Session,
		Gen:     lr.Gen,
		Slot:    lr.Slot,
		Payload: lr.Payload,
	}
	if len(lr.Parents) > 0 {
		rec.Parents = make([]Hash, len(lr.Parents))
		for i, p := range lr.Parents {
			rec.Parents[i] = p
		}
	}
	return rec, nil
}

// hashFrame mints the content address of an encoded envelope.
func hashFrame(frame []byte) Hash { return sha256.Sum256(frame) }

// Metrics holds the ledger's observability counters. All fields are
// optional handles into an obs.Registry; a nil *Metrics disables counting.
type Metrics struct {
	Appends         *obs.Counter // records durably appended
	AppendBytes     *obs.Counter // encoded bytes appended
	Fsyncs          *obs.Counter // backend Sync calls
	Forks           *obs.Counter // conflict-key forks detected
	LiveRecords     *obs.Gauge   // records the store holds in memory
	OpenGenerations *obs.Gauge   // generations opened and not yet closed
}

// NewMetrics registers the ledger series under prefix (e.g. "dlsd") so
// every series exists from the first scrape.
func NewMetrics(reg *obs.Registry, prefix string) *Metrics {
	return &Metrics{
		Appends:         reg.Counter(prefix + "_ledger_appends_total"),
		AppendBytes:     reg.Counter(prefix + "_ledger_append_bytes_total"),
		Fsyncs:          reg.Counter(prefix + "_ledger_fsyncs_total"),
		Forks:           reg.Counter(prefix + "_ledger_forks_total"),
		LiveRecords:     reg.Gauge(prefix + "_ledger_live_records"),
		OpenGenerations: reg.Gauge(prefix + "_ledger_open_generations"),
	}
}
