package ledger

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// SessionLog appends one session's evidence to a Store. It is created by
// OpenSession (which mints the session head record) or ResumeSession (crash
// recovery over an existing spine) and hands out one RoundLog per
// generation.
type SessionLog struct {
	st  *Store
	id  uint64
	mu  sync.Mutex
	gen uint64 // last generation opened
}

// OpenSession allocates a session ID and appends its head record.
func (s *Store) OpenSession(h wire.Hello) (*SessionLog, error) {
	id := s.allocSession()
	_, _, err := s.Put(Record{
		Kind:    KindSession,
		Session: id,
		Payload: wire.AppendHello(nil, h),
	})
	if err != nil {
		return nil, err
	}
	return &SessionLog{st: s, id: id}, nil
}

// ResumeSession continues appending to a session already in the log.
func (s *Store) ResumeSession(id uint64) (*SessionLog, error) {
	sv := s.Session(id)
	if sv == nil {
		return nil, fmt.Errorf("ledger: session %d not in the log", id)
	}
	return &SessionLog{st: s, id: id, gen: sv.Opened}, nil
}

// ID returns the ledger session identifier.
func (sl *SessionLog) ID() uint64 { return sl.id }

// RoundLog records one generation's artifacts. It implements
// protocol.EvidenceSink structurally: the protocol package defines the
// interface, this type satisfies it without either package importing the
// other's runtime. Record methods are safe for concurrent use and never
// fail loudly — the first backend error sticks and is returned by Close,
// which is where the round's durability is decided.
type RoundLog struct {
	sl      *SessionLog
	mu      sync.Mutex
	gen     uint64
	open    Hash
	up      []Hash // {open}: every artifact's parent set
	seq     uint64
	seen    map[Hash]struct{}
	arts    []Hash
	err     error
	enc     []byte        // inner-frame scratch, reused under mu
	bidWrap []sign.Signed // RecordBid wrapper, reused under mu
	journal []byte        // the staged journal frame; nil if none
}

// OpenRound appends the next generation's opening record, parented on the
// session's current tip, and returns its recorder. The open record is
// appended before the round runs and reaches the disk with the round's
// other evidence at the next barrier: a crash mid-round leaves a mark of
// what was being attempted if a barrier ran in between, and otherwise no
// trace of a round no client saw settle.
//
// The tip is read and appended to in two steps, and a concurrent close (a
// pipelined stream settles load k while load k+1 opens) can move it in
// between. The store would then forget the old tip, so the append is
// retried on the new one.
func (sl *SessionLog) OpenRound(rq wire.Round) (*RoundLog, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	gen := sl.gen + 1
	payload := wire.AppendRound(nil, rq)
	for {
		tip, ok := sl.st.sessionTip(sl.id)
		if !ok {
			return nil, fmt.Errorf("ledger: session %d not in the log", sl.id)
		}
		h, _, err := sl.st.put(Record{
			Kind:    KindRound,
			Session: sl.id,
			Gen:     gen,
			Parents: []Hash{tip},
			Payload: payload,
		}, putOpen)
		if err == errTipMoved {
			continue
		}
		if err != nil {
			return nil, err
		}
		sl.gen = gen
		return sl.newRoundLog(gen, h, rq.Seq, nil), nil
	}
}

// RoundAt returns a recorder anchored at generation gen's existing open
// record — the crash-recovery path. The recorder starts preloaded with the
// artifacts already on disk, so a deterministic re-run dedups into them and
// the eventual settle record commits to the union.
func (sl *SessionLog) RoundAt(gen uint64) (*RoundLog, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	gv := sl.st.gen(sl.id, gen)
	if gv == nil {
		return nil, fmt.Errorf("ledger: session %d holds no generation %d", sl.id, gen)
	}
	return sl.newRoundLog(gen, gv.Open, gv.Round.Seq, gv.Artifacts), nil
}

func (sl *SessionLog) newRoundLog(gen uint64, open Hash, seq uint64, preload []Hash) *RoundLog {
	rl := &RoundLog{
		sl:   sl,
		gen:  gen,
		open: open,
		up:   []Hash{open},
		seq:  seq,
		seen: make(map[Hash]struct{}),
	}
	for _, h := range preload {
		rl.seen[h] = struct{}{}
		rl.arts = append(rl.arts, h)
	}
	return rl
}

// Gen returns the generation this recorder writes.
func (rl *RoundLog) Gen() uint64 { return rl.gen }

// Err returns the sticky first append error, if any.
func (rl *RoundLog) Err() error {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.err
}

// put appends one artifact under the round-open parent.
func (rl *RoundLog) put(kind Kind, slot int, payload []byte) {
	if rl.err != nil {
		return
	}
	h, _, err := rl.sl.st.Put(Record{
		Kind:    kind,
		Session: rl.sl.id,
		Gen:     rl.gen,
		Slot:    slot,
		Parents: rl.up,
		Payload: payload,
	})
	if err != nil {
		rl.err = err
		return
	}
	if _, ok := rl.seen[h]; !ok {
		rl.seen[h] = struct{}{}
		rl.arts = append(rl.arts, h)
	}
}

// RecordBid persists P_slot's signed Phase I commitment.
func (rl *RoundLog) RecordBid(slot int, s sign.Signed) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.bidWrap = append(rl.bidWrap[:0], s)
	rl.enc = wire.AppendBid(rl.enc[:0], wire.Bid{From: slot, Signed: rl.bidWrap})
	rl.put(KindBid, slot, rl.enc)
}

// RecordAlloc persists G as built in Phase II.
func (rl *RoundLog) RecordAlloc(g wire.Alloc) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.enc = wire.AppendAlloc(rl.enc[:0], g)
	rl.put(KindAlloc, g.To, rl.enc)
}

// RecordLoadAck persists P_slot's Phase III receipt.
func (rl *RoundLog) RecordLoadAck(slot int, l wire.Load) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.enc = wire.AppendLoad(rl.enc[:0], l)
	rl.put(KindLoadAck, slot, rl.enc)
}

// RecordGrievance persists an overload accusation bundle.
func (rl *RoundLog) RecordGrievance(gr wire.Grievance) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.enc = wire.AppendGrievance(rl.enc[:0], gr)
	rl.put(KindGrievance, gr.Reporter, rl.enc)
}

// RecordBill persists P_slot's Phase IV bill with its proof bundle.
func (rl *RoundLog) RecordBill(b wire.Bill) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.enc = wire.AppendBill(rl.enc[:0], b)
	rl.put(KindBill, b.From, rl.enc)
}

// RecordJournal stages the round's payment journal — its transfers, in
// order — for the close: CloseDeferred appends it as the generation's
// journal artifact just before the settle record, whose parent set commits
// to it. A restart applies it to the tenant's book instead of re-running
// the round. A later call replaces the staged journal; Void drops it.
func (rl *RoundLog) RecordJournal(entries []wire.JournalEntry) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.journal = wire.AppendJournal(rl.journal[:0], entries)
}

// closeParents assembles the deterministic parent set of a settle or void
// record: the round-open first, then every artifact sorted by address
// (insertion order is scheduling-dependent; the sort makes the close record
// reproducible). Callers hold rl.mu.
func (rl *RoundLog) closeParents() []Hash {
	ps := append(append(make([]Hash, 0, 1+len(rl.arts)), rl.open), rl.arts...)
	slices.SortFunc(ps[1:], func(a, b Hash) int { return bytes.Compare(a[:], b[:]) })
	return ps
}

// Close appends the round's fine artifacts, its staged journal and its
// settle record — whose parent set commits to every artifact recorded —
// then fsyncs the backend.
// Only after Close returns nil is the round durably settled; the daemon
// acknowledges the client strictly after this point (fsync-before-ack).
func (rl *RoundLog) Close(rr wire.RoundResult) error {
	if err := rl.CloseDeferred(rr); err != nil {
		return err
	}
	return rl.sl.st.Sync()
}

// CloseDeferred appends the round's fine artifacts, staged journal and
// settle record without the durability barrier: the settle is in the log
// but not yet fsynced. A pipelined consumer group-commits — it defers several
// consecutive settles and covers them with one SessionLog.Sync — so the
// barrier's fixed cost amortizes across the pipeline window while
// fsync-before-ack still holds per load (no result is acknowledged before
// a Sync that covers its settle returns nil). The store forgets the
// generation as the settle is appended; any later append to it fails with
// ErrForgotten.
func (rl *RoundLog) CloseDeferred(rr wire.RoundResult) error {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.err != nil {
		return rl.err
	}
	for i, d := range rr.Detections {
		rl.enc = wire.AppendDetection(rl.enc[:0], d)
		rl.put(KindFine, i, rl.enc)
		if rl.err != nil {
			return rl.err
		}
	}
	if rl.journal != nil {
		rl.put(KindJournal, 0, rl.journal)
		if rl.err != nil {
			return rl.err
		}
	}
	_, _, err := rl.sl.st.put(Record{
		Kind:    KindSettle,
		Session: rl.sl.id,
		Gen:     rl.gen,
		Parents: rl.closeParents(),
		Payload: wire.AppendRoundResult(nil, rr),
	}, putClose)
	if err != nil {
		rl.err = err
		return err
	}
	return nil
}

// Sync fsyncs the store: the group-commit barrier for deferred closes.
func (sl *SessionLog) Sync() error { return sl.st.Sync() }

// Void closes the round without an outcome: the run failed or could not be
// resumed, and the void record seals whatever evidence exists. The payload
// is a SrvError frame naming the reason. The store forgets the generation
// as the void is appended, as at CloseDeferred.
func (rl *RoundLog) Void(code, msg string) error {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	// A sticky artifact error does not block voiding: void is exactly the
	// "evidence intact, no outcome" close, and it must be attemptable even
	// after a failed append (the Put below will surface a dead backend).
	_, _, err := rl.sl.st.put(Record{
		Kind:    KindVoid,
		Session: rl.sl.id,
		Gen:     rl.gen,
		Parents: rl.closeParents(),
		Payload: wire.AppendSrvError(nil, wire.SrvError{Seq: rl.seq, Code: code, Msg: msg}),
	}, putClose)
	if err != nil {
		return err
	}
	return rl.sl.st.Sync()
}
