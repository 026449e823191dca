package ledger

import (
	"fmt"
	"sort"
	"sync"

	"dlsmech/internal/wire"
)

// conflictKey identifies the one submission slot a record occupies; two
// different records under the same key are a fork.
type conflictKey struct {
	session uint64
	gen     uint64
	slot    int
	kind    Kind
}

// Fork records a conflict-key collision: two distinct records where the
// protocol permits exactly one. A is the branch wired into the views (first
// seen in append order), B the challenger; both stay in the log as evidence.
type Fork struct {
	Session uint64
	Gen     uint64
	Slot    int
	Kind    Kind
	A, B    Hash
}

func (f Fork) String() string {
	return fmt.Sprintf("fork: session %d gen %d slot %d %s: %s vs %s",
		f.Session, f.Gen, f.Slot, f.Kind, f.A.Short(), f.B.Short())
}

// Issue is a structural defect found while wiring the DAG: an orphaned
// record, a broken parent link, a non-contiguous generation. Issues do not
// stop the store from opening — an auditor needs to see the damage — but
// the daemon refuses to serve on top of them.
type Issue struct {
	Code    string
	Session uint64
	Gen     uint64
	Hash    Hash
	Detail  string
}

func (i Issue) String() string {
	return fmt.Sprintf("%s: session %d gen %d %s: %s", i.Code, i.Session, i.Gen, i.Hash.Short(), i.Detail)
}

// GenView is the wired state of one generation of a session.
type GenView struct {
	Gen       uint64
	Open      Hash
	Round     wire.Round
	Artifacts []Hash // first-per-slot artifacts, append order
	Settle    Hash
	Void      Hash
}

// Closed reports whether the generation reached a durable outcome.
func (g *GenView) Closed() bool { return !g.Settle.IsZero() || !g.Void.IsZero() }

// SessionView is the wired state of one session. Views returned by the
// store are live and must be treated as read-only snapshots under the
// caller's synchronization regime (the daemon reads them only at recovery,
// before serving starts; dlsaudit is single-threaded).
type SessionView struct {
	ID    uint64
	Hello wire.Hello
	Head  Hash
	Tip   Hash
	Gens  []*GenView
}

// Store wires a backend's records into the evidence DAG and enforces its
// invariants on every append: parents must exist, conflict keys collide
// into forks, spines stay contiguous. One Store owns one backend.
type Store struct {
	mu          sync.Mutex
	be          Backend
	met         *Metrics
	known       map[Hash]struct{}
	byKey       map[conflictKey]Hash
	forks       []Fork
	issues      []Issue
	sessions    map[uint64]*SessionView
	nextSession uint64
}

// encBufs pools the envelope scratch Put encodes and hashes into before it
// takes the store lock.
var encBufs = sync.Pool{New: func() any { return new([]byte) }}

// Open wires every record the backend holds. It fails hard only on
// unreadable storage (I/O errors, digest mismatches, undecodable frames);
// structural damage is collected into Issues() so an auditor can report it.
func Open(be Backend, met *Metrics) (*Store, error) {
	s := &Store{
		be:          be,
		met:         met,
		known:       make(map[Hash]struct{}),
		byKey:       make(map[conflictKey]Hash),
		sessions:    make(map[uint64]*SessionView),
		nextSession: 1,
	}
	err := be.Scan(func(h Hash, frame []byte) error {
		if hashFrame(frame) != h {
			return fmt.Errorf("ledger: record %s: content does not match its address", h.Short())
		}
		rec, err := decodeRecord(frame)
		if err != nil {
			return fmt.Errorf("ledger: record %s: %w", h.Short(), err)
		}
		s.ingestLocked(h, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Put encodes, addresses, persists and wires one record. The returned bool
// reports whether the record was already present (an idempotent re-append).
// Unknown parents are an error on the live path — the recorder always
// appends parents first. A conflict-key collision is NOT an error: the fork
// is recorded and the challenger persisted, because divergent evidence must
// survive to be audited. Encoding and hashing run before the store lock is
// taken; the lock covers the checks, the backend append and the wiring.
func (s *Store) Put(rec Record) (Hash, bool, error) {
	buf := encBufs.Get().(*[]byte)
	enc := appendRecord((*buf)[:0], rec)
	h := hashFrame(enc)
	dup, err := s.putEncoded(h, enc, rec)
	if err == nil && !dup && s.met != nil {
		s.met.Appends.Inc()
		s.met.AppendBytes.Add(int64(len(enc)))
	}
	*buf = enc
	encBufs.Put(buf)
	return h, dup, err
}

// putEncoded is Put's locked section for the envelope enc of rec at h.
func (s *Store) putEncoded(h Hash, enc []byte, rec Record) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.known[h]; ok {
		return true, nil
	}
	for _, p := range rec.Parents {
		if _, ok := s.known[p]; !ok {
			return false, fmt.Errorf("ledger: %s record references unknown parent %s", rec.Kind, p.Short())
		}
	}
	if err := s.be.Put(h, enc); err != nil {
		return false, err
	}
	s.known[h] = struct{}{}
	s.wireLocked(h, rec)
	return false, nil
}

// Sync flushes the backend; the durability point of everything Put so far.
func (s *Store) Sync() error {
	if err := s.be.Sync(); err != nil {
		return err
	}
	if s.met != nil {
		s.met.Fsyncs.Inc()
	}
	return nil
}

// Close closes the backend.
func (s *Store) Close() error { return s.be.Close() }

// Get fetches and decodes the record at h.
func (s *Store) Get(h Hash) (Record, error) {
	frame, err := s.be.Get(h)
	if err != nil {
		return Record{}, err
	}
	return decodeRecord(frame)
}

// GetFrame fetches the raw encoded envelope at h.
func (s *Store) GetFrame(h Hash) ([]byte, error) { return s.be.Get(h) }

// Forks returns every conflict-key collision seen.
func (s *Store) Forks() []Fork {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Fork(nil), s.forks...)
}

// Issues returns every structural defect seen.
func (s *Store) Issues() []Issue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Issue(nil), s.issues...)
}

// Sessions returns the wired sessions, ID-ascending.
func (s *Store) Sessions() []*SessionView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*SessionView, 0, len(s.sessions))
	for _, sv := range s.sessions {
		out = append(out, sv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Session returns one session's view, or nil.
func (s *Store) Session(id uint64) *SessionView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// sessionTip returns the session's latest spine record. It reads under the
// store lock: in a pipelined stream the previous load's settle moves the
// tip while the next load opens.
func (s *Store) sessionTip(id uint64) (Hash, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv := s.sessions[id]
	if sv == nil {
		return Hash{}, false
	}
	return sv.Tip, true
}

// allocSession reserves the next session ID.
func (s *Store) allocSession() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextSession
	s.nextSession++
	return id
}

// issue records a structural defect.
func (s *Store) issue(code string, rec Record, h Hash, format string, args ...any) {
	s.issues = append(s.issues, Issue{
		Code:    code,
		Session: rec.Session,
		Gen:     rec.Gen,
		Hash:    h,
		Detail:  fmt.Sprintf(format, args...),
	})
}

// ingestLocked wires one record found by the open-time scan, recording a
// missing-parent issue for each parent not seen before it.
func (s *Store) ingestLocked(h Hash, rec Record) {
	if _, ok := s.known[h]; ok {
		return
	}
	s.known[h] = struct{}{}
	for _, p := range rec.Parents {
		if _, ok := s.known[p]; !ok {
			s.issue("missing-parent", rec, h, "parent %s is not in the log", p.Short())
		}
	}
	s.wireLocked(h, rec)
}

// wireLocked wires one known, persisted record into the views. The
// open-time scan and the live append path apply identical rules.
func (s *Store) wireLocked(h Hash, rec Record) {
	k := conflictKey{rec.Session, rec.Gen, rec.Slot, rec.Kind}
	if prev, ok := s.byKey[k]; ok {
		s.forks = append(s.forks, Fork{
			Session: rec.Session, Gen: rec.Gen, Slot: rec.Slot, Kind: rec.Kind,
			A: prev, B: h,
		})
		if s.met != nil {
			s.met.Forks.Inc()
		}
		return // the first branch stays wired; the challenger is evidence only
	}
	s.byKey[k] = h

	switch rec.Kind {
	case KindSession:
		hello, _, err := wire.DecodeHello(rec.Payload)
		if err != nil {
			s.issue("bad-payload", rec, h, "session payload: %v", err)
			return
		}
		if _, ok := s.sessions[rec.Session]; ok {
			s.issue("duplicate-session", rec, h, "session %d already wired", rec.Session)
			return
		}
		s.sessions[rec.Session] = &SessionView{ID: rec.Session, Hello: hello, Head: h, Tip: h}
		if rec.Session >= s.nextSession {
			s.nextSession = rec.Session + 1
		}
	case KindRound:
		sv := s.sessions[rec.Session]
		if sv == nil {
			s.issue("orphan-round", rec, h, "no session record")
			return
		}
		rq, _, err := wire.DecodeRound(rec.Payload)
		if err != nil {
			s.issue("bad-payload", rec, h, "round payload: %v", err)
			return
		}
		if rec.Gen != uint64(len(sv.Gens))+1 {
			s.issue("non-contiguous-gen", rec, h, "round opens gen %d, expected %d", rec.Gen, len(sv.Gens)+1)
			return
		}
		sv.Gens = append(sv.Gens, &GenView{Gen: rec.Gen, Open: h, Round: rq})
		sv.Tip = h
	case KindSettle, KindVoid:
		gv := s.genLocked(rec.Session, rec.Gen)
		if gv == nil {
			s.issue("orphan-close", rec, h, "%s record for unknown generation", rec.Kind)
			return
		}
		if rec.Kind == KindSettle {
			gv.Settle = h
		} else {
			gv.Void = h
		}
		s.sessions[rec.Session].Tip = h
	default:
		gv := s.genLocked(rec.Session, rec.Gen)
		if gv == nil {
			s.issue("orphan-artifact", rec, h, "%s record for unknown generation", rec.Kind)
			return
		}
		gv.Artifacts = append(gv.Artifacts, h)
	}
}

// genLocked resolves a (session, gen) pair to its view, or nil.
func (s *Store) genLocked(session, gen uint64) *GenView {
	sv := s.sessions[session]
	if sv == nil || gen == 0 || gen > uint64(len(sv.Gens)) {
		return nil
	}
	return sv.Gens[gen-1]
}
