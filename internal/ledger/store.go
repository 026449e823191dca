package ledger

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"dlsmech/internal/wire"
)

// genRef names one generation of one session; generation 0 holds the
// session record.
type genRef struct {
	session uint64
	gen     uint64
}

// slotKey is a record's cell within its generation. (session, gen, slot,
// kind) is the conflict key: two different records under it are a fork.
type slotKey struct {
	slot int
	kind Kind
}

// genKeys holds one generation's conflict-key cells and the fork
// challengers filed under them: every record the store knows for that
// generation, so that forgetting the generation can drop each one.
type genKeys struct {
	first  map[slotKey]Hash
	forked []Hash
}

// ErrForgotten refuses an append to a generation the store has closed and
// forgotten.
var ErrForgotten = errors.New("ledger: generation is closed and forgotten")

// errTipMoved makes OpenRound re-read the tip: a close moved it between the
// read and the append.
var errTipMoved = errors.New("ledger: session tip moved")

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
	Journal   Hash // the settle's journal artifact, if any
	// Legacy: the round-open record sits in storage of the first format,
	// written before rounds were seeded by generation and journaled (see
	// FileBackend). Such a round replays only on its session's stream.
	Legacy bool
	// Literal: the round-open record sits in storage of a format before
	// bills and load acks were normalized (the first or the second). Such
	// a round, resumed, records them literally, as it began.
	Literal bool
	// While Restore scans, the records themselves: the artifacts', parallel
	// to Artifacts, and the first close record.
	recs     []Record
	closeRec Record
}

// Closed reports whether the generation reached a durable outcome.
func (g *GenView) Closed() bool { return !g.Settle.IsZero() || !g.Void.IsZero() }

// SessionView is the wired state of one session. A store from Open or
// OpenDir holds every generation in the log. A serving store forgets each
// generation once its close record is appended (RoundLog.CloseDeferred,
// RoundLog.Void), and Restore forgets each one as it hands it over, so
// there Gens holds only the generations still open. Views returned by the
// store are live and must be treated as read-only snapshots under the
// caller's synchronization regime (the daemon reads them only at recovery,
// before serving starts; dlsaudit is single-threaded).
type SessionView struct {
	ID     uint64
	Hello  wire.Hello
	Head   Hash
	Tip    Hash
	Opened uint64     // generations opened, forgotten ones included
	Gens   []*GenView // the generations held, ascending
	// staleTip: Tip belongs to a forgotten generation. It stays known,
	// because the next round-open is parented on it, until the tip moves.
	staleTip bool
}

// find returns generation gen's position in Gens.
func (sv *SessionView) find(gen uint64) (int, bool) {
	if gen >= 1 && gen <= uint64(len(sv.Gens)) && sv.Gens[gen-1].Gen == gen {
		return int(gen - 1), true // every generation is held: a store from Open
	}
	return slices.BinarySearchFunc(sv.Gens, gen, func(gv *GenView, gen uint64) int { return cmp.Compare(gv.Gen, gen) })
}

// Store wires a backend's records into the evidence DAG and enforces its
// invariants on every append: parents must exist, conflict keys collide
// into forks, spines stay contiguous. One Store owns one backend.
//
// What it holds in memory is bounded by what can still be appended to:
// every session's head and tip, and the records of the generations it
// holds (see SessionView). Forgetting a generation drops its view, its
// records from known and byKey and their backend index entries; its
// evidence stays in the log, and a store opened over the log sees it.
type Store struct {
	mu          sync.Mutex
	be          Backend
	met         *Metrics
	known       map[Hash]struct{}
	byKey       map[genRef]*genKeys
	forks       []Fork
	issues      []Issue
	sessions    map[uint64]*SessionView
	nextSession uint64
	openGens    int    // generations wired open and not yet closed
	drop        []Hash // hashes for the backend's Forget, reused under mu

	load    func(*Store) error // Defer's open, which Restore runs; nil once it ran
	restore func(*Generation)  // set while Restore scans: takes each generation as it closes
	scanned int                // records the open's scan visited
	scanB   int64              // and their encoded bytes
	peak    int                // most records known at once
}

// encBufs pools the envelope scratch Put encodes and hashes into before it
// takes the store lock.
var encBufs = sync.Pool{New: func() any { return new([]byte) }}

func newStore(be Backend, met *Metrics) *Store {
	return &Store{
		be:          be,
		met:         met,
		known:       make(map[Hash]struct{}),
		byKey:       make(map[genRef]*genKeys),
		sessions:    make(map[uint64]*SessionView),
		nextSession: 1,
	}
}

// Open wires every record the backend holds; it never forgets, so the
// store sees the whole DAG. It fails hard only on unreadable storage (I/O
// errors, digest mismatches, undecodable frames); structural damage is
// collected into Issues() so an auditor can report it.
func Open(be Backend, met *Metrics) (*Store, error) {
	s := newStore(be, met)
	if err := be.Scan(s.ingestFrame); err != nil {
		return nil, err
	}
	s.gaugesLocked()
	return s, nil
}

// OpenDir is Open(OpenFile(dir, segSize), met) in one pass: each record is
// read and digest-checked once, by the backend's open, and wired from that
// same frame. Closing the store closes the backend.
func OpenDir(dir string, segSize int64, met *Metrics) (*Store, error) {
	s := newStore(nil, met)
	if _, err := openFile(dir, segSize, s); err != nil {
		return nil, err
	}
	s.gaugesLocked()
	return s, nil
}

// Defer returns a store over the segment log in dir that has not read it:
// its Restore opens the log. Until Restore has returned nil, the store
// serves nothing else; Close before that is a no-op.
func Defer(dir string, segSize int64, met *Metrics) *Store {
	s := newStore(nil, met)
	s.load = func(s *Store) error {
		_, err := openFile(dir, segSize, s)
		return err
	}
	return s
}

// RestoreStats is what Restore's scan saw.
type RestoreStats struct {
	Records  int   // records the scan read
	Bytes    int64 // their encoded envelopes' bytes, each read and hashed once
	PeakLive int   // most records the store knew at once
}

// Restore opens a store from Defer in one pass over its log, handing each
// generation to fn as soon as it can be applied, and forgetting it as it
// hands it over, so the store never holds more than the generations still
// open. fn gets:
//
//   - during the scan, each closed generation as its close record is read,
//     unless an earlier generation of its session is still open: a
//     session's generations are handed over in generation order, so one
//     closed behind an open one waits for the end of the scan;
//   - after the scan, and only if it found no issue and no fork, every
//     generation still held, by session ID, then generation: the open ones
//     (Close.Kind is 0) stay held, for the caller to resume through
//     SessionLog.RoundAt.
//
// fn runs on Restore's goroutine and may block, which holds the scan back.
// Nothing may be appended during the scan; a generation handed over after
// it may be resumed at once, while the rest are handed over. A record that
// names a generation already closed earlier in the log is an Issue.
// Restore fails on what Open fails on: unreadable or tampered storage.
func (s *Store) Restore(fn func(*Generation)) (RestoreStats, error) {
	if s.load == nil {
		return RestoreStats{}, errors.New("ledger: Restore needs an unopened store from Defer")
	}
	load := s.load
	s.load, s.restore = nil, fn
	err := load(s)
	s.restore = nil
	st := RestoreStats{Records: s.scanned, Bytes: s.scanB, PeakLive: s.peak}
	if err != nil {
		s.be = nil
		return st, err
	}
	s.mu.Lock()
	var rest []*Generation
	if len(s.issues) == 0 && len(s.forks) == 0 {
		ids := make([]uint64, 0, len(s.sessions))
		for id := range s.sessions {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			sv := s.sessions[id]
			var held []*GenView
			for _, gv := range sv.Gens {
				rest = append(rest, s.handOffLocked(sv, gv))
				if !gv.Closed() {
					held = append(held, gv)
				}
			}
			sv.Gens = held
		}
	}
	s.gaugesLocked()
	s.mu.Unlock()
	for _, g := range rest {
		fn(g)
	}
	return st, nil
}

// handOffLocked builds gv's Generation from the records the scan kept and,
// if gv is closed, forgets it (the caller removes it from sv.Gens).
func (s *Store) handOffLocked(sv *SessionView, gv *GenView) *Generation {
	g := &Generation{Session: sv.ID, Hello: sv.Hello, GenView: *gv, Records: gv.recs, Close: gv.closeRec}
	g.recs, g.closeRec = nil, Record{}
	gv.recs = nil
	if gv.Closed() {
		s.forgetLocked(sv, gv)
		s.be.Forget(s.drop)
		s.drop = s.drop[:0]
	}
	return g
}

// ingestFrame decodes and wires one record found at open. The store is not
// yet shared, so it takes no lock. The decoded record owns its parents and
// payload, so Restore may keep it after the scan has reused the frame.
func (s *Store) ingestFrame(h Hash, frame []byte) error {
	s.scanned++
	s.scanB += int64(len(frame))
	rec, err := decodeRecord(frame)
	if err != nil {
		return fmt.Errorf("ledger: record %s: %w", h.Short(), err)
	}
	s.ingestLocked(h, rec)
	return nil
}

// putMode is what an append does beside persisting and wiring its record.
type putMode uint8

const (
	putPlain putMode = iota
	putOpen          // a round-open parented on the tip: errTipMoved unless that is still the tip
	putClose         // a settle or void: forget its generation once wired
)

// Put encodes, addresses, persists and wires one record. The returned bool
// reports whether the record was already present (an idempotent re-append).
// Unknown parents are an error on the live path — the recorder always
// appends parents first. A conflict-key collision is NOT an error: the fork
// is recorded and the challenger persisted, because divergent evidence must
// survive to be audited. Encoding and hashing run before the store lock is
// taken; the lock covers the checks, the backend append and the wiring.
//
// An append to a generation the store has forgotten fails with
// ErrForgotten: its evidence is sealed by a close record.
func (s *Store) Put(rec Record) (Hash, bool, error) { return s.put(rec, putPlain) }

func (s *Store) put(rec Record, mode putMode) (Hash, bool, error) {
	buf := encBufs.Get().(*[]byte)
	enc := appendRecord((*buf)[:0], rec)
	h := hashFrame(enc)
	dup, err := s.putEncoded(h, enc, rec, mode)
	if err == nil && !dup && s.met != nil {
		s.met.Appends.Inc()
		s.met.AppendBytes.Add(int64(len(enc)))
	}
	*buf = enc
	encBufs.Put(buf)
	return h, dup, err
}

// putEncoded is Put's locked section for the envelope enc of rec at h.
func (s *Store) putEncoded(h Hash, enc []byte, rec Record, mode putMode) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.known[h]; ok {
		return true, nil
	}
	sv := s.sessions[rec.Session]
	if mode == putOpen && (sv == nil || sv.Tip != rec.Parents[0]) {
		return false, errTipMoved
	}
	if rec.Kind != KindSession && sv != nil && rec.Gen >= 1 && rec.Gen <= sv.Opened {
		if _, held := sv.find(rec.Gen); !held {
			return false, fmt.Errorf("%w: session %d gen %d, %s record", ErrForgotten, rec.Session, rec.Gen, rec.Kind)
		}
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
	if mode == putClose && sv != nil {
		if i, ok := sv.find(rec.Gen); ok && sv.Gens[i].Closed() {
			s.forgetLocked(sv, sv.Gens[i])
			s.be.Forget(s.drop)
			s.drop = s.drop[:0]
			// A copy, not an in-place delete: a caller may still be
			// reading a slice the store handed out earlier.
			var held []*GenView
			if len(sv.Gens) > 1 {
				held = slices.Concat(sv.Gens[:i], sv.Gens[i+1:])
			}
			sv.Gens = held
		}
	}
	s.gaugesLocked()
	return false, nil
}

// forgetLocked drops closed generation gv of sv from memory: every record
// filed under its conflict keys leaves known, except the session tip, which
// stays known until the tip moves on, and is appended to s.drop for the
// caller to pass to the backend's Forget. The caller also removes gv from
// sv.Gens.
func (s *Store) forgetLocked(sv *SessionView, gv *GenView) {
	ref := genRef{sv.ID, gv.Gen}
	gk := s.byKey[ref]
	if gk == nil {
		return
	}
	delete(s.byKey, ref)
	for _, h := range gk.first {
		s.forgetRecordLocked(sv, h)
	}
	for _, h := range gk.forked {
		s.forgetRecordLocked(sv, h)
	}
}

// forgetRecordLocked is forgetLocked for one record.
func (s *Store) forgetRecordLocked(sv *SessionView, h Hash) {
	if h == sv.Tip {
		sv.staleTip = true
		return
	}
	delete(s.known, h)
	s.drop = append(s.drop, h)
}

// moveTipLocked advances sv's tip to h, dropping a stale tip.
func (s *Store) moveTipLocked(sv *SessionView, h Hash) {
	if sv.staleTip {
		delete(s.known, sv.Tip)
		s.drop = append(s.drop[:0], sv.Tip)
		s.be.Forget(s.drop)
		s.drop = s.drop[:0]
		sv.staleTip = false
	}
	sv.Tip = h
}

// Live reports what the store holds in memory: its known records and the
// generations wired open and not yet closed.
func (s *Store) Live() (records, openGens int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.known), s.openGens
}

// gaugesLocked publishes Live to the metrics.
func (s *Store) gaugesLocked() {
	if s.met == nil {
		return
	}
	s.met.LiveRecords.Set(float64(len(s.known)))
	s.met.OpenGenerations.Set(float64(s.openGens))
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

// Close closes the backend. A store from Defer that Restore has not opened
// holds none.
func (s *Store) Close() error {
	if s.be == nil {
		return nil
	}
	return s.be.Close()
}

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

// gen returns a held generation's view, or nil.
func (s *Store) gen(session, gen uint64) *GenView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.genLocked(session, gen)
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
// missing-parent issue for each parent not seen before it. An artifact or
// close record of a generation closed earlier in the log is an after-close
// issue: it is still wired, so that a conflicting one is also a fork,
// unless Restore has already handed the generation over.
func (s *Store) ingestLocked(h Hash, rec Record) {
	if _, ok := s.known[h]; ok {
		return
	}
	if rec.Kind != KindSession && rec.Kind != KindRound {
		if sv := s.sessions[rec.Session]; sv != nil && rec.Gen >= 1 && rec.Gen <= sv.Opened {
			i, held := sv.find(rec.Gen)
			if !held || sv.Gens[i].Closed() {
				s.issue("after-close", rec, h, "%s record for a generation closed earlier in the log", rec.Kind)
			}
			if !held {
				s.be.Forget([]Hash{h})
				return
			}
		}
	}
	s.known[h] = struct{}{}
	s.peak = max(s.peak, len(s.known))
	for _, p := range rec.Parents {
		if _, ok := s.known[p]; !ok {
			s.issue("missing-parent", rec, h, "parent %s is not in the log", p.Short())
		}
	}
	s.wireLocked(h, rec)
	if fb, ok := s.be.(formatBackend); ok && rec.Kind == KindRound {
		if f := fb.Format(h); f < FormatNormalized {
			if gv := s.genLocked(rec.Session, rec.Gen); gv != nil && gv.Open == h {
				gv.Legacy, gv.Literal = f == FormatLegacy, true
			}
		}
	}
}

// Storage formats, as a FileBackend segment's magic names them.
const (
	// FormatLegacy (DLSLEDG1): rounds on the session's Λ stream, no
	// journals.
	FormatLegacy = 1
	// FormatJournaled (DLSLEDG2): rounds seeded by generation and
	// journaled; bills and load acks stored literally.
	FormatJournaled = 2
	// FormatNormalized (DLSLEDG3): bills and load acks may reference the
	// artifacts whose bytes they repeat.
	FormatNormalized = 3
)

// formatBackend is a backend that knows the format each record is stored
// in (FileBackend).
type formatBackend interface {
	Format(h Hash) int
}

// wireLocked wires one known, persisted record into the views. The
// open-time scan and the live append path apply identical rules.
func (s *Store) wireLocked(h Hash, rec Record) {
	ref := genRef{rec.Session, rec.Gen}
	gk := s.byKey[ref]
	if gk == nil {
		gk = &genKeys{first: make(map[slotKey]Hash)}
		s.byKey[ref] = gk
	}
	k := slotKey{rec.Slot, rec.Kind}
	if prev, ok := gk.first[k]; ok {
		s.forks = append(s.forks, Fork{
			Session: rec.Session, Gen: rec.Gen, Slot: rec.Slot, Kind: rec.Kind,
			A: prev, B: h,
		})
		gk.forked = append(gk.forked, h)
		if s.met != nil {
			s.met.Forks.Inc()
		}
		return // the first branch stays wired; the challenger is evidence only
	}
	gk.first[k] = h

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
		if rec.Gen != sv.Opened+1 {
			s.issue("non-contiguous-gen", rec, h, "round opens gen %d, expected %d", rec.Gen, sv.Opened+1)
			return
		}
		sv.Opened = rec.Gen
		sv.Gens = append(sv.Gens, &GenView{Gen: rec.Gen, Open: h, Round: rq})
		s.openGens++
		s.moveTipLocked(sv, h)
	case KindSettle, KindVoid:
		gv := s.genLocked(rec.Session, rec.Gen)
		if gv == nil {
			s.issue("orphan-close", rec, h, "%s record for unknown generation", rec.Kind)
			return
		}
		first := !gv.Closed()
		if first {
			s.openGens--
		}
		if rec.Kind == KindSettle {
			gv.Settle = h
		} else {
			gv.Void = h
		}
		sv := s.sessions[rec.Session]
		s.moveTipLocked(sv, h)
		if s.restore != nil && first {
			gv.closeRec = rec
			s.handOverClosed(sv)
		}
	default:
		gv := s.genLocked(rec.Session, rec.Gen)
		if gv == nil {
			s.issue("orphan-artifact", rec, h, "%s record for unknown generation", rec.Kind)
			return
		}
		gv.Artifacts = append(gv.Artifacts, h)
		if rec.Kind == KindJournal {
			gv.Journal = h
		}
		if s.restore != nil {
			if len(rec.Parents) == 1 {
				rec.Parents = nil // the round-open alone; Verify reads a stored frame's referents
			}
			gv.recs = append(gv.recs, rec)
		}
	}
}

// handOverClosed hands sv's leading closed generations to Restore's fn, in
// generation order, forgetting each one; it stops at the first one still
// open. It runs on the scan's goroutine.
func (s *Store) handOverClosed(sv *SessionView) {
	for len(sv.Gens) > 0 && sv.Gens[0].Closed() {
		g := s.handOffLocked(sv, sv.Gens[0])
		sv.Gens = sv.Gens[1:]
		s.restore(g)
	}
}

// genLocked resolves a (session, gen) pair to its view, or nil.
func (s *Store) genLocked(session, gen uint64) *GenView {
	sv := s.sessions[session]
	if sv == nil {
		return nil
	}
	i, ok := sv.find(gen)
	if !ok {
		return nil
	}
	return sv.Gens[i]
}
