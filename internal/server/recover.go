package server

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"dlsmech/internal/ledger"
	"dlsmech/internal/protocol"
	"dlsmech/internal/wire"
)

// Recover replays the configured evidence ledger and rebuilds the daemon's
// warm state from it. For every session in the log:
//
//   - the hash chain and every embedded signature are re-verified
//     (ledger.VerifySession);
//   - settled generations are re-run in order on a fresh protocol session
//     — determinism makes the recomputed RoundResult byte-identical to the
//     stored settle payload, and any divergence refuses service;
//   - an interrupted (open) generation is resumed: the re-run's artifacts
//     dedup into the ones already on disk and the round settles normally,
//     or, if the run cannot complete, the generation is voided with its
//     evidence intact;
//   - the recovered session lands in the pool, warm, with its ledger spine
//     positioned for the next generation.
//
// Once every session is recovered, the store forgets every closed
// generation (ledger.Store.ForgetClosed), as serving does.
//
// Recovery also replays every settled round into the tenant book, so the
// cumulative conservation invariant survives the restart.
//
// Tenants recover concurrently, at most GOMAXPROCS at a time, each one's
// sessions in ID order, so its book applies rounds as they were served.
// Pool adoption, log lines and the returned error follow session-ID order.
// When recovery fails, a resumed tail round of another tenant may already
// have settled, with the bytes a successful recovery would have written.
//
// Recover is a no-op without a ledger. It must run before serving starts
// (Listen does); it is not safe concurrently with live rounds.
func (s *Server) Recover() error {
	st := s.cfg.Ledger
	if st == nil {
		return nil
	}
	if issues := st.Issues(); len(issues) > 0 {
		return fmt.Errorf("server: ledger has %d structural issues (first: %s); refusing to serve — run dlsaudit", len(issues), issues[0])
	}
	if forks := st.Forks(); len(forks) > 0 {
		return fmt.Errorf("server: ledger has %d evidence forks (first: %s); refusing to serve — run dlsaudit", len(forks), forks[0])
	}
	sessions := st.Sessions()
	type recovered struct {
		ps   *pooledSession
		err  error
		logs []string
	}
	out := make([]recovered, len(sessions))
	byTenant := make(map[string][]int) // session indices, ID order
	for i, sv := range sessions {
		byTenant[sv.Hello.Tenant] = append(byTenant[sv.Hello.Tenant], i)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, idx := range byTenant {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			for _, i := range idx {
				r := &out[i]
				logf := func(format string, args ...any) { r.logs = append(r.logs, fmt.Sprintf(format, args...)) }
				if r.ps, r.err = s.recoverSession(sessions[i], logf); r.err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, sv := range sessions {
		r := out[i]
		for _, line := range r.logs {
			s.cfg.Logf("%s", line)
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
	st.ForgetClosed()
	return nil
}

// recoverSession rebuilds one pooled session from its ledger spine.
func (s *Server) recoverSession(sv *ledger.SessionView, logf func(string, ...any)) (*pooledSession, error) {
	hello := sv.Hello
	if hello.Size < 2 || hello.Size > s.cfg.MaxSessionSize {
		return nil, fmt.Errorf("session size %d outside [2,%d]", hello.Size, s.cfg.MaxSessionSize)
	}
	if issues := s.cfg.Ledger.VerifySession(sv.ID); len(issues) > 0 {
		return nil, fmt.Errorf("evidence verification failed: %s (and %d more)", issues[0], len(issues)-1)
	}
	sl, err := s.cfg.Ledger.ResumeSession(sv.ID)
	if err != nil {
		return nil, err
	}
	ps := &pooledSession{sess: protocol.NewSession(hello.Size, hello.Seed), log: sl}
	s.met.sessionsCreated.Inc()
	for _, gv := range sv.Gens {
		params, err := RoundParams(hello.Size, gv.Round)
		if err != nil {
			return nil, fmt.Errorf("gen %d: stored round no longer admissible: %w", gv.Gen, err)
		}
		switch {
		case !gv.Settle.IsZero():
			// Replay: the session's deterministic state (issuer streams,
			// memos) must advance through every settled round in order.
			res, err := replaySettled(s.cfg.Ledger, ps.sess, params, gv)
			if err != nil {
				return nil, fmt.Errorf("gen %d: %w", gv.Gen, err)
			}
			s.tenants.settle(hello.Tenant, res.Ledger.Journal())
		case !gv.Void.IsZero():
			// Voided: no outcome to replay. The evidence stays sealed; the
			// round contributes nothing to session or tenant state.
			continue
		default:
			// Interrupted mid-round: resume it. The re-run's appends dedup
			// into the artifacts already on disk; the settle commits to the
			// union.
			rl, err := sl.RoundAt(gv.Gen)
			if err != nil {
				return nil, err
			}
			params.Evidence = rl
			res, err := ps.sess.Run(params)
			if err != nil {
				if verr := rl.Void(CodeRunFailed, "recovery re-run: "+err.Error()); verr != nil {
					return nil, fmt.Errorf("gen %d: void after failed resume: %w", gv.Gen, verr)
				}
				s.met.ledgerRoundFailures.Inc()
				logf("dlsd: session %d gen %d voided during recovery: %v", sv.ID, gv.Gen, err)
				continue
			}
			if err := rl.Close(ResultToWire(gv.Round.Seq, res)); err != nil {
				return nil, fmt.Errorf("gen %d: settle resumed round: %w", gv.Gen, err)
			}
			s.tenants.settle(hello.Tenant, res.Ledger.Journal())
			s.met.roundsRecovered.Inc()
		}
	}
	return ps, nil
}

// replaySettled re-runs one settled generation on sess and requires the
// recomputed RoundResult to match the settle record on disk byte for byte.
// Crash recovery and the offline audit both rest on it.
func replaySettled(st *ledger.Store, sess *protocol.Session, params protocol.Params, gv *ledger.GenView) (*protocol.Result, error) {
	res, err := sess.Run(params)
	if err != nil {
		return nil, fmt.Errorf("replay failed: %w", err)
	}
	rec, err := st.Get(gv.Settle)
	if err != nil {
		return nil, fmt.Errorf("settle record: %w", err)
	}
	replayed := wire.AppendRoundResult(nil, ResultToWire(gv.Round.Seq, res))
	if !bytes.Equal(replayed, rec.Payload) {
		return nil, fmt.Errorf("replay diverges from the settled outcome on disk (%d vs %d bytes)", len(replayed), len(rec.Payload))
	}
	return res, nil
}
