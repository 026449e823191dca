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
//
// Bills and load acks are stored normalized: a section byte-equal to one
// an artifact recorded earlier in the generation holds is stored as a
// reference to it (wire.StoredBill, wire.StoredLoad), with the referent's
// address among the record's parents. Which sections reference what
// depends on the round's evidence alone, because the protocol records
// every referent before the artifacts that may reference it (a receipt
// before its forwarded tail, every other artifact before the bills), so
// equal rounds store equal bytes.
type RoundLog struct {
	sl      *SessionLog
	mu      sync.Mutex
	gen     uint64
	open    Hash
	up      []Hash // {open}: a literal artifact's parent set
	seq     uint64
	seen    map[Hash]struct{}
	arts    []Hash
	err     error
	enc     []byte        // inner-frame scratch, reused under mu
	par     []Hash        // a normalized artifact's parent set, reused under mu
	bidWrap []sign.Signed // RecordBid wrapper, reused under mu
	journal []byte        // the staged journal frame; nil if none
	// refs indexes what a bill or load ack may reference; nil stores them
	// literally: a generation opened in a format before normalization, or
	// a closed one.
	refs *refIndex
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
		return sl.newRoundLog(gen, h, rq.Seq, false), nil
	}
}

// RoundAt returns a recorder anchored at generation gen's existing open
// record — the crash-recovery path. The recorder starts preloaded with the
// artifacts already on disk, so a deterministic re-run dedups into them and
// the eventual settle record commits to the union. A generation whose
// round-open sits in a format before normalization (GenView.Literal) goes
// on storing bills and load acks literally, as it began; any other reads
// its artifacts back, so that it references what its first run did.
func (sl *SessionLog) RoundAt(gen uint64) (*RoundLog, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	gv := sl.st.gen(sl.id, gen)
	if gv == nil {
		return nil, fmt.Errorf("ledger: session %d holds no generation %d", sl.id, gen)
	}
	return sl.roundAt(gv, nil)
}

// Resume is RoundAt for an open generation Restore handed over: the
// recorder is preloaded from g's records, not from the log.
func (sl *SessionLog) Resume(g *Generation) (*RoundLog, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if g.Session != sl.id || sl.st.gen(sl.id, g.Gen) == nil {
		return nil, fmt.Errorf("ledger: session %d holds no generation %d", sl.id, g.Gen)
	}
	return sl.roundAt(&g.GenView, g.Records)
}

// roundAt builds gv's recorder, preloaded from recs (parallel to
// gv.Artifacts) or, if recs is nil, from the log.
func (sl *SessionLog) roundAt(gv *GenView, recs []Record) (*RoundLog, error) {
	rl := sl.newRoundLog(gv.Gen, gv.Open, gv.Round.Seq, gv.Literal)
	for i, h := range gv.Artifacts {
		rl.seen[h] = struct{}{}
		rl.arts = append(rl.arts, h)
		if rl.refs == nil {
			continue
		}
		var rec Record
		if recs != nil {
			rec = recs[i]
		} else {
			var err error
			if rec, err = sl.st.Get(h); err != nil {
				return nil, err
			}
		}
		rl.refs.preload(h, rec)
	}
	return rl, nil
}

func (sl *SessionLog) newRoundLog(gen uint64, open Hash, seq uint64, literal bool) *RoundLog {
	rl := &RoundLog{
		sl:   sl,
		gen:  gen,
		open: open,
		up:   []Hash{open},
		seq:  seq,
		seen: make(map[Hash]struct{}),
	}
	if !literal {
		rl.refs = getRefIndex()
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

// put appends one artifact under parents (the round-open first) and
// reports its address; ok is false once an append has failed.
func (rl *RoundLog) put(kind Kind, slot int, parents []Hash, payload []byte) (h Hash, ok bool) {
	if rl.err != nil {
		return h, false
	}
	h, _, err := rl.sl.st.Put(Record{
		Kind:    kind,
		Session: rl.sl.id,
		Gen:     rl.gen,
		Slot:    slot,
		Parents: parents,
		Payload: payload,
	})
	if err != nil {
		rl.err = err
		return h, false
	}
	if _, ok := rl.seen[h]; !ok {
		rl.seen[h] = struct{}{}
		rl.arts = append(rl.arts, h)
	}
	return h, true
}

// RecordBid persists P_slot's signed Phase I commitment.
func (rl *RoundLog) RecordBid(slot int, s sign.Signed) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.bidWrap = append(rl.bidWrap[:0], s)
	rl.enc = wire.AppendBid(rl.enc[:0], wire.Bid{From: slot, Signed: rl.bidWrap})
	if h, ok := rl.put(KindBid, slot, rl.up, rl.enc); ok && rl.refs != nil {
		rl.refs.addBid(slot, h, s)
	}
}

// RecordAlloc persists G as built in Phase II.
func (rl *RoundLog) RecordAlloc(g wire.Alloc) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.enc = wire.AppendAlloc(rl.enc[:0], g)
	if h, ok := rl.put(KindAlloc, g.To, rl.up, rl.enc); ok && rl.refs != nil {
		rl.refs.addAlloc(h, &g)
	}
}

// RecordLoadAck persists P_slot's Phase III receipt. A Λ that is the tail
// of load-ack(slot-1)'s — the honest forward — is stored as a reference
// to it and the offset of the tail; any other literally.
func (rl *RoundLog) RecordLoadAck(slot int, l wire.Load) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	ix := rl.refs
	if ix == nil {
		rl.enc = wire.AppendLoad(rl.enc[:0], l)
		rl.put(KindLoadAck, slot, rl.up, rl.enc)
		return
	}
	if prev, off, ok := ix.tailOf(slot-1, l.Att); ok {
		stored := wire.StoredLoad{Load: l, Ref: wire.LedgerRef{Kind: uint8(KindLoadAck), Field: wire.RefLoadAtt, Slot: slot - 1, Offset: off}}
		rl.enc = wire.AppendStoredLoad(rl.enc[:0], &stored)
		rl.par = append(rl.par[:0], rl.open, prev.h)
		if h, ok := rl.put(KindLoadAck, slot, rl.par, rl.enc); ok {
			ix.addAck(slot, h, prev.lo+off, prev.hi)
		}
		return
	}
	rl.enc = wire.AppendLoad(rl.enc[:0], l)
	if h, ok := rl.put(KindLoadAck, slot, rl.up, rl.enc); ok && !at(ix.acks, slot).set {
		lo, hi := ix.copyAtt(l.Att)
		ix.addAck(slot, h, lo, hi)
	}
}

// RecordGrievance persists an overload accusation bundle.
func (rl *RoundLog) RecordGrievance(gr wire.Grievance) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.enc = wire.AppendGrievance(rl.enc[:0], gr)
	rl.put(KindGrievance, gr.Reporter, rl.up, rl.enc)
}

// RecordBill persists P_slot's Phase IV bill with its proof bundle. Each
// proof section byte-equal to the one its referent holds — G_j to
// alloc(j), the successor bid to bid(j+1), the own bid to
// alloc(j+1).PrevBid, Λ_j to load-ack(j) — is stored as a reference; a
// bill with none is stored as it is.
func (rl *RoundLog) RecordBill(b wire.Bill) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.refs != nil {
		stored := wire.StoredBill{Bill: b}
		rl.par = rl.refs.storeBill(&stored.Bill, &stored.Refs, append(rl.par[:0], rl.open))
		if len(rl.par) > 1 {
			rl.enc = wire.AppendStoredBill(rl.enc[:0], &stored)
			rl.put(KindBill, b.From, rl.par, rl.enc)
			return
		}
	}
	rl.enc = wire.AppendBill(rl.enc[:0], b)
	rl.put(KindBill, b.From, rl.up, rl.enc)
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
		if _, ok := rl.put(KindFine, i, rl.up, rl.enc); !ok {
			return rl.err
		}
	}
	if rl.journal != nil {
		if _, ok := rl.put(KindJournal, 0, rl.up, rl.journal); !ok {
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
	rl.releaseRefs()
	return nil
}

// releaseRefs returns the reference index to the pool once the generation
// is closed; the recorder stores anything later literally (and the store
// refuses it). Callers hold rl.mu.
func (rl *RoundLog) releaseRefs() {
	if rl.refs != nil {
		refIndexes.Put(rl.refs)
		rl.refs = nil
	}
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
	rl.releaseRefs()
	return rl.sl.st.Sync()
}
