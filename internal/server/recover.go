package server

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"dlsmech/internal/ledger"
	"dlsmech/internal/payment"
	"dlsmech/internal/protocol"
	"dlsmech/internal/wire"
)

// Recover rebuilds the daemon's warm state from the configured evidence
// ledger in one pass over the log. The ledger must be a store from
// ledger.Defer: Recover opens it with ledger.Store.Restore, whose scan
// hands over each generation as soon as its close record is read. A pool
// of at most GOMAXPROCS workers takes them, each tenant pinned to one
// worker, and for each generation the worker
//
//   - verifies its evidence (ledger.Generation.Verify: the close record's
//     parents and every embedded signature), with the PKI of the
//     session's protocol.Session;
//   - applies a settled generation's journal artifact to the tenant's
//     book, once replaying its transfers reproduces the settle payload's
//     Outlay and NetZero. The round is not re-run: the settle and journal
//     pair is trusted once it passes the hash, parent-commit and
//     Outlay/NetZero checks, and re-execution is the offline audit's job
//     (AuditLedger);
//   - re-runs a legacy settled generation (ledger.GenView.Legacy: written
//     before rounds were seeded by generation and journaled) on the
//     session's Λ stream, in order: the recomputed RoundResult must be
//     byte-identical to the settle payload on disk, and the re-run's
//     journal goes to the book;
//   - skips a voided generation, which has no outcome;
//   - resumes an interrupted (open) generation, handed over only once the
//     whole log has scanned with no issue or fork: the re-run, seeded by
//     its generation (a legacy one on the stream), dedups its artifacts
//     into the ones already on disk and the round settles normally, or, if
//     the run cannot complete, the generation is voided with its evidence
//     intact.
//
// The store forgets each generation as it hands it over, so a restart
// holds the open generations, not the history. A session's generations go
// in generation order, and a tenant's in the order the store hands them
// over: the order of their close records, except that a generation closed
// behind an open one of its session waits for it. That order depends on
// the log alone, so the tenant books do not depend on the worker count.
//
// Structural issues (among them a record naming a generation closed
// earlier in the log) and forks refuse service, and so does a session that
// fails; the error names the lowest session ID at fault. Recovered
// sessions land in the pool in session-ID order, warm, with their ledger
// spine positioned for the next generation. When recovery fails, a resumed
// tail round of another tenant may already have settled, with the bytes a
// successful recovery would have written.
//
// Recover is a no-op without a ledger. It must run before serving starts
// (Listen does); it is not safe concurrently with live rounds.
func (s *Server) Recover() error {
	st := s.cfg.Ledger
	if st == nil {
		return nil
	}
	t0 := time.Now()
	rc := s.newRecovery(runtime.GOMAXPROCS(0))
	stats, err := st.Restore(rc.dispatch)
	scan := time.Since(t0)
	rc.wait()
	finish := time.Since(t0) - scan
	if err != nil {
		return fmt.Errorf("server: open ledger: %w", err)
	}
	if issues := st.Issues(); len(issues) > 0 {
		first := slices.MinFunc(issues, func(a, b ledger.Issue) int { return cmp.Compare(a.Session, b.Session) })
		return fmt.Errorf("server: recover ledger session %d: ledger has %d structural issues (first: %s); refusing to serve — run dlsaudit", first.Session, len(issues), first)
	}
	if forks := st.Forks(); len(forks) > 0 {
		first := slices.MinFunc(forks, func(a, b ledger.Fork) int { return cmp.Compare(a.Session, b.Session) })
		return fmt.Errorf("server: recover ledger session %d: ledger has %d evidence forks (first: %s); refusing to serve — run dlsaudit", first.Session, len(forks), first)
	}
	sessions := st.Sessions()
	for _, sv := range sessions {
		r := rc.sessions[sv.ID]
		if r == nil { // a session with no generation
			r = s.startRecovery(sv.Hello)
		}
		for _, line := range r.logs {
			s.cfg.Logf("%s", line)
		}
		if r.err == nil && r.ps.log == nil {
			r.ps.log, r.err = st.ResumeSession(sv.ID)
		}
		if r.err != nil {
			return fmt.Errorf("server: recover ledger session %d: %w", sv.ID, r.err)
		}
		key := poolKey{tenant: sv.Hello.Tenant, size: sv.Hello.Size, seed: sv.Hello.Seed}
		if err := s.pool.adopt(key, r.ps); err != nil {
			return err
		}
		s.cfg.Logf("dlsd: recovered ledger session %d (%q, m=%d, %d generations)",
			sv.ID, sv.Hello.Tenant, sv.Hello.Size, sv.Opened)
	}
	live, _ := st.Live()
	s.cfg.Logf("dlsd: recovery: %d records (%s), %d sessions; live records peak %d, %d after; scan %v, finish %v; summed over %d workers: verify %v, journal %v (%d rounds), replay %v (%d legacy rounds), tail resume %v",
		stats.Records, decimalBytes(stats.Bytes), len(sessions), stats.PeakLive, live, scan.Round(time.Millisecond), finish.Round(time.Millisecond),
		len(rc.workers), rc.verify.Round(time.Millisecond), rc.journal.Round(time.Millisecond), rc.journaled,
		rc.replay.Round(time.Millisecond), rc.replayed, rc.resume.Round(time.Millisecond))
	return nil
}

// decimalBytes renders n bytes in decimal units, to three significant
// figures: "1.13 GB".
func decimalBytes(n int64) string {
	units := []string{"B", "kB", "MB", "GB", "TB"}
	x, u := float64(n), 0
	for x >= 1000 && u < len(units)-1 {
		x /= 1000
		u++
	}
	if u == 0 {
		return fmt.Sprintf("%d B", n)
	}
	return fmt.Sprintf("%.3g %s", x, units[u])
}

// recovery is one Recover's worker pool.
type recovery struct {
	workers []*recoveryWorker
	tenants map[string]*recoveryWorker // the scan's goroutine only
	wg      sync.WaitGroup
	// Once the workers are done: every session they saw, and their busy
	// times and round counts summed.
	sessions map[uint64]*recovered
	recoveryWork
}

// recoveryWork is a worker's busy time per step and the settled rounds it
// took from journals and from legacy replays.
type recoveryWork struct {
	verify, journal, replay, resume time.Duration
	journaled, replayed             int
}

// recoveryWorker applies the generations of the tenants pinned to it, in
// the order it receives them.
type recoveryWorker struct {
	gens     chan *ledger.Generation
	sessions map[uint64]*recovered
	recoveryWork
}

// recovered is one session's recovery state.
type recovered struct {
	ps   *pooledSession
	err  error // the first failure; the session's later generations are skipped
	logs []string
}

// recoveryQueue is how many generations the workers hold, between them,
// ahead of the ones they apply; a worker's queue is its share, at least
// one. The scan waits for a worker whose queue is full.
const recoveryQueue = 32

func (s *Server) newRecovery(workers int) *recovery {
	rc := &recovery{tenants: make(map[string]*recoveryWorker), sessions: make(map[uint64]*recovered)}
	workers = max(workers, 1)
	for range workers {
		w := &recoveryWorker{gens: make(chan *ledger.Generation, max(recoveryQueue/workers, 1)), sessions: make(map[uint64]*recovered)}
		rc.workers = append(rc.workers, w)
		rc.wg.Add(1)
		go func() {
			defer rc.wg.Done()
			for g := range w.gens {
				r := w.sessions[g.Session]
				if r == nil {
					r = s.startRecovery(g.Hello)
					w.sessions[g.Session] = r
				}
				if r.err == nil {
					r.err = w.apply(s, r, g)
				}
			}
		}()
	}
	return rc
}

// dispatch queues g on its tenant's worker, pinning a tenant it has not
// seen to the next worker in turn.
func (rc *recovery) dispatch(g *ledger.Generation) {
	w := rc.tenants[g.Hello.Tenant]
	if w == nil {
		w = rc.workers[len(rc.tenants)%len(rc.workers)]
		rc.tenants[g.Hello.Tenant] = w
	}
	w.gens <- g
}

// wait stops the workers once their queues drain and gathers their
// sessions and busy times.
func (rc *recovery) wait() {
	for _, w := range rc.workers {
		close(w.gens)
	}
	rc.wg.Wait()
	for _, w := range rc.workers {
		for id, r := range w.sessions {
			rc.sessions[id] = r
		}
		rc.verify += w.verify
		rc.journal += w.journal
		rc.replay += w.replay
		rc.resume += w.resume
		rc.journaled += w.journaled
		rc.replayed += w.replayed
	}
}

// startRecovery provisions a fresh protocol session for a session record.
func (s *Server) startRecovery(hello wire.Hello) *recovered {
	if hello.Size < 2 || hello.Size > s.cfg.MaxSessionSize {
		return &recovered{err: fmt.Errorf("session size %d outside [2,%d]", hello.Size, s.cfg.MaxSessionSize)}
	}
	s.met.sessionsCreated.Inc()
	return &recovered{ps: &pooledSession{sess: protocol.NewSession(hello.Size, hello.Seed)}}
}

// apply verifies one generation and applies its journal, replays, skips or
// resumes it.
func (w *recoveryWorker) apply(s *Server, r *recovered, g *ledger.Generation) error {
	t := time.Now()
	issues := g.Verify(r.ps.sess.PKI())
	w.verify += time.Since(t)
	if len(issues) > 0 {
		return fmt.Errorf("evidence verification failed: %s (and %d more)", issues[0], len(issues)-1)
	}
	params, err := RoundParams(g.Hello.Size, g.Round)
	if err != nil {
		return fmt.Errorf("gen %d: stored round no longer admissible: %w", g.Gen, err)
	}
	t = time.Now()
	switch {
	case !g.Settle.IsZero() && !g.Legacy:
		journal, err := settledJournal(g)
		w.journal += time.Since(t)
		if err != nil {
			return fmt.Errorf("gen %d: %w", g.Gen, err)
		}
		s.tenants.settle(g.Hello.Tenant, journal)
		w.journaled++
	case !g.Settle.IsZero():
		// A legacy round: the session's Λ stream must advance through every
		// settled one in order.
		res, err := replaySettled(r.ps.sess, params, g.Round.Seq, g.Close.Payload)
		w.replay += time.Since(t)
		if err != nil {
			return fmt.Errorf("gen %d: %w", g.Gen, err)
		}
		s.tenants.settle(g.Hello.Tenant, res.Ledger.Journal())
		w.replayed++
	case !g.Void.IsZero():
		// Voided: no outcome to apply. The evidence stays sealed; the
		// round contributes nothing to session or tenant state.
	default:
		if !g.Legacy {
			params.Gen = g.Gen
		}
		err := s.resumeGen(r, g, params)
		w.resume += time.Since(t)
		return err
	}
	return nil
}

// settledJournal decodes the journal artifact of settled generation g and
// checks it against the settle payload: its transfers, replayed in order
// into a fresh payment ledger, must reproduce the settle's Outlay bit for
// bit and its NetZero verdict, through the functions ResultToWire reads.
// It returns the journal as the tenant book applies it.
func settledJournal(g *ledger.Generation) ([]payment.Entry, error) {
	var payload []byte
	for _, rec := range g.Records {
		if rec.Kind == ledger.KindJournal {
			payload = rec.Payload
		}
	}
	if payload == nil {
		return nil, fmt.Errorf("settle record has no journal artifact")
	}
	entries, n, err := wire.DecodeJournal(payload)
	if err == nil && n != len(payload) {
		err = fmt.Errorf("%d trailing bytes", len(payload)-n)
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	rr, _, err := wire.DecodeRoundResult(g.Close.Payload)
	if err != nil {
		return nil, fmt.Errorf("settle payload: %w", err)
	}
	l := payment.NewLedgerSized(len(entries), len(entries))
	for i, e := range entries {
		if err := l.Transfer(e.From, e.To, e.Amount, payment.KindAdjustment, ""); err != nil {
			return nil, fmt.Errorf("journal entry %d: %w", i, err)
		}
	}
	if out := l.MechanismOutlay(); math.Float64bits(out) != math.Float64bits(rr.Outlay) || l.NetZero(netZeroTol) != rr.NetZero {
		return nil, fmt.Errorf("journal does not reproduce the settle: outlay %v, net zero %v; the settle says %v, %v",
			out, l.NetZero(netZeroTol), rr.Outlay, rr.NetZero)
	}
	return l.Journal(), nil
}

// resumeGen resumes a generation interrupted mid-round: the re-run's
// appends dedup into the artifacts already on disk, and the settle commits
// to the union.
func (s *Server) resumeGen(r *recovered, g *ledger.Generation, params protocol.Params) error {
	if r.ps.log == nil {
		sl, err := s.cfg.Ledger.ResumeSession(g.Session)
		if err != nil {
			return err
		}
		r.ps.log = sl
	}
	rl, err := r.ps.log.Resume(g)
	if err != nil {
		return err
	}
	params.Evidence = rl
	res, err := r.ps.sess.Run(params)
	if err != nil {
		if verr := rl.Void(CodeRunFailed, "recovery re-run: "+err.Error()); verr != nil {
			return fmt.Errorf("gen %d: void after failed resume: %w", g.Gen, verr)
		}
		s.met.ledgerRoundFailures.Inc()
		r.logs = append(r.logs, fmt.Sprintf("dlsd: session %d gen %d voided during recovery: %v", g.Session, g.Gen, err))
		return nil
	}
	rl.RecordJournal(JournalToWire(res))
	if err := rl.Close(ResultToWire(g.Round.Seq, res)); err != nil {
		return fmt.Errorf("gen %d: settle resumed round: %w", g.Gen, err)
	}
	s.tenants.settle(g.Hello.Tenant, res.Ledger.Journal())
	s.met.roundsRecovered.Inc()
	return nil
}

// replaySettled re-runs one settled round on sess and requires the
// recomputed RoundResult to match the settle payload on disk byte for byte.
// Crash recovery and the offline audit both rest on it.
func replaySettled(sess *protocol.Session, params protocol.Params, seq uint64, settled []byte) (*protocol.Result, error) {
	res, err := sess.Run(params)
	if err != nil {
		return nil, fmt.Errorf("replay failed: %w", err)
	}
	replayed := wire.AppendRoundResult(nil, ResultToWire(seq, res))
	if !bytes.Equal(replayed, settled) {
		return nil, fmt.Errorf("replay diverges from the settled outcome on disk (%d vs %d bytes)", len(replayed), len(settled))
	}
	return res, nil
}
