package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"dlsmech/internal/agent"
	"dlsmech/internal/cli"
	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/fault"
	"dlsmech/internal/ledger"
	"dlsmech/internal/payment"
	"dlsmech/internal/protocol"
	"dlsmech/internal/wire"
)

// SrvError codes the daemon emits.
const (
	CodeOverloaded = "overloaded" // connection/session/round capacity reached
	CodeDraining   = "draining"   // server is shutting down
	CodeBadHello   = "bad-hello"  // malformed or out-of-bounds session open
	CodeBadRound   = "bad-round"  // round request failed validation
	CodeRunFailed  = "run-failed" // protocol.Run returned an error
	CodeBadFrame   = "bad-frame"  // unexpected frame type for the conn state
	// CodeLedgerFailed reports that the evidence ledger could not durably
	// record the round. The round's outcome is NOT acknowledged: without a
	// settle record on disk, the daemon refuses to assert one on the wire
	// (fsync-before-ack).
	CodeLedgerFailed = "ledger-failed"
)

// Round-parameter bounds: a round request is validated against these
// before any resources are committed, so a hostile client cannot make one
// request allocate or stall disproportionately.
const (
	maxRoundTimeout = 10 * time.Second
	maxRoundRetries = 16
	maxFaultDelay   = time.Second
	maxFaultRules   = 64
	// netZeroTol is the conservation tolerance for one round's ledger.
	netZeroTol = 1e-6
)

// connState is one served connection. The handler goroutine owns all
// reads and writes; nudge (called from Shutdown) only touches deadlines
// under mu.
type connState struct {
	conn net.Conn

	mu      sync.Mutex
	inRound bool
	closed  bool
	nudged  bool

	wbuf []byte // response frame scratch, reused across writes
}

// nudge kicks an idle connection off its blocking read so drain can
// proceed; a connection mid-round is left alone (it finishes, writes its
// result, and exits on its own when it observes draining). The flag stays
// set so a handler racing past its Draining() check cannot re-extend the
// deadline afterwards (see armRead).
func (cs *connState) nudge() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.nudged = true
	if !cs.inRound && !cs.closed {
		cs.conn.SetReadDeadline(time.Now())
	}
}

// armRead sets the per-frame read deadline, unless drain's nudge has
// already fired — then the immediate deadline is preserved so the next
// ReadFrame returns at once instead of blocking for the full ReadTimeout
// (which would delay graceful drain to the ctx budget and get the
// connection severed rather than drained).
func (cs *connState) armRead(d time.Duration) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.nudged || cs.closed {
		return
	}
	cs.conn.SetReadDeadline(time.Now().Add(d))
}

func (cs *connState) setInRound(v bool) {
	cs.mu.Lock()
	cs.inRound = v
	cs.mu.Unlock()
}

// write sends one pre-encoded frame.
func (cs *connState) write(frame []byte) error {
	_, err := cs.conn.Write(frame)
	return err
}

func (cs *connState) writeError(s *Server, seq uint64, code, msg string) error {
	cs.wbuf = wire.AppendSrvError(cs.wbuf[:0], wire.SrvError{Seq: seq, Code: code, Msg: msg})
	s.met.errorsSent.Inc()
	return cs.write(cs.wbuf)
}

// handleConn serves one connection: Hello handshake, then a Round loop.
func (s *Server) handleConn(cs *connState) {
	defer s.wg.Done()
	defer func() {
		cs.mu.Lock()
		cs.closed = true
		cs.mu.Unlock()
		cs.conn.Close()
		s.dropConn(cs)
	}()

	hello, ok := s.handshake(cs)
	if !ok {
		return
	}
	key := poolKey{tenant: hello.Tenant, size: hello.Size, seed: hello.Seed}
	ps, pooled, err := s.pool.get(key)
	if err != nil {
		cs.writeError(s, 0, CodeOverloaded, err.Error())
		return
	}
	defer s.pool.put(key, ps)

	id := s.sessionID.Add(1)
	cs.wbuf = wire.AppendHelloAck(cs.wbuf[:0], wire.HelloAck{SessionID: id, Pooled: pooled})
	if cs.write(cs.wbuf) != nil {
		return
	}

	var rbuf []byte
	for {
		if s.Draining() {
			cs.writeError(s, 0, CodeDraining, "server shutting down")
			return
		}
		cs.armRead(s.cfg.ReadTimeout)
		frame, typ, err := wire.ReadFrame(cs.conn, rbuf, s.cfg.MaxBody)
		rbuf = frame
		if err != nil {
			s.countReadError(err)
			return
		}
		switch typ {
		case wire.TypeRound:
			rq, _, err := wire.DecodeRound(frame)
			if err != nil {
				s.met.wireDecodeErrors.Inc()
				return
			}
			if err := s.serveRound(cs, hello, ps, rq); err != nil {
				return
			}
		case wire.TypeStream:
			sq, _, err := wire.DecodeStream(frame)
			if err != nil {
				s.met.wireDecodeErrors.Inc()
				return
			}
			if err := s.serveStream(cs, hello, ps, sq); err != nil {
				return
			}
		default:
			cs.writeError(s, 0, CodeBadFrame, fmt.Sprintf("unexpected %v frame", typ))
			return
		}
	}
}

// handshake reads and validates the Hello frame.
func (s *Server) handshake(cs *connState) (wire.Hello, bool) {
	cs.armRead(s.cfg.ReadTimeout)
	frame, typ, err := wire.ReadFrame(cs.conn, nil, s.cfg.MaxBody)
	if err != nil {
		s.countReadError(err)
		return wire.Hello{}, false
	}
	if typ != wire.TypeHello {
		cs.writeError(s, 0, CodeBadHello, fmt.Sprintf("expected hello, got %v", typ))
		return wire.Hello{}, false
	}
	h, _, err := wire.DecodeHello(frame)
	if err != nil {
		s.met.wireDecodeErrors.Inc()
		return wire.Hello{}, false
	}
	if h.Size < 2 || h.Size > s.cfg.MaxSessionSize {
		cs.writeError(s, 0, CodeBadHello,
			fmt.Sprintf("session size %d outside [2,%d]", h.Size, s.cfg.MaxSessionSize))
		return wire.Hello{}, false
	}
	return h, true
}

// countReadError classifies a frame-read failure: a clean EOF between
// frames is a normal disconnect; a deadline expiry is a timeout; anything
// else (bad magic, bad type, oversized or truncated frame) counts as a
// wire decode error — the signal the smoke job and the fuzz harness
// watch.
func (s *Server) countReadError(err error) {
	if err == io.EOF {
		return // clean disconnect between frames
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.met.readTimeouts.Inc()
		return
	}
	if errors.Is(err, net.ErrClosed) {
		return
	}
	// Bad magic, unknown type, oversized announcement, or a frame cut off
	// mid-body: the stream is unframeable.
	s.met.wireDecodeErrors.Inc()
}

// serveRound validates, executes and answers one round request. A non-nil
// return closes the connection (response write failed).
//
// With a ledger configured, the round is bracketed by evidence writes: a
// round-open record before the run, every artifact during it (via the
// protocol's EvidenceSink), and the fine + settle records — fsynced —
// strictly before the RoundResult frame goes on the wire. A round whose
// evidence cannot be made durable is answered with CodeLedgerFailed, never
// with a result the disk does not back.
func (s *Server) serveRound(cs *connState, hello wire.Hello, ps *pooledSession, rq wire.Round) error {
	params, err := RoundParams(hello.Size, rq)
	if err != nil {
		s.met.roundsRejected.Inc()
		return cs.writeError(s, rq.Seq, CodeBadRound, err.Error())
	}
	if budget := DetectorBudget(hello.Size, rq); budget > s.cfg.MaxDetectorWait {
		s.met.roundsRejected.Inc()
		return cs.writeError(s, rq.Seq, CodeBadRound,
			fmt.Sprintf("worst-case detector budget %v exceeds %v; lower the timeout or retries", budget, s.cfg.MaxDetectorWait))
	}

	// Round-concurrency gate: each round spawns size goroutines.
	select {
	case s.roundSlots <- struct{}{}:
	case <-s.drainCh:
		return cs.writeError(s, rq.Seq, CodeDraining, "server shutting down")
	}

	var rl *ledger.RoundLog
	if ps.log != nil {
		rl, err = ps.log.OpenRound(rq)
		if err != nil {
			<-s.roundSlots
			s.met.ledgerRoundFailures.Inc()
			return cs.writeError(s, rq.Seq, CodeLedgerFailed, err.Error())
		}
		params.Evidence, params.Gen = rl, rl.Gen()
	}

	cs.setInRound(true)
	start := time.Now()
	res, err := ps.sess.Run(params)
	dur := time.Since(start)
	cs.setInRound(false)
	<-s.roundSlots

	if err != nil {
		s.met.roundsFailed.Inc()
		if rl != nil {
			// Seal whatever evidence the failed run produced.
			if verr := rl.Void(CodeRunFailed, err.Error()); verr != nil {
				s.met.ledgerRoundFailures.Inc()
				s.cfg.Logf("dlsd: ledger void seq %d: %v", rq.Seq, verr)
			}
		}
		return cs.writeError(s, rq.Seq, CodeRunFailed, err.Error())
	}

	rr := ResultToWire(rq.Seq, res)
	if rl != nil {
		// fsync-before-ack: the journal and settle records (and their
		// fsync) precede the response write below, so an acknowledged round
		// survives a crash.
		rl.RecordJournal(JournalToWire(res))
		if err := rl.Close(rr); err != nil {
			s.met.ledgerRoundFailures.Inc()
			return cs.writeError(s, rq.Seq, CodeLedgerFailed, err.Error())
		}
	}
	s.met.roundsServed.Inc()
	s.met.roundSeconds.Observe(dur.Seconds())
	s.tenants.settle(hello.Tenant, res.Ledger.Journal())

	cs.wbuf = wire.AppendRoundResult(cs.wbuf[:0], rr)
	if err := cs.write(cs.wbuf); err != nil {
		return errClosedResponse
	}
	return nil
}

// RoundParams converts a wire round request into protocol.Params for a
// session of the given population size, validating every field a hostile
// client could abuse. It is exported so the loopback harness can build the
// exact in-process equivalent of a served round.
func RoundParams(size int, rq wire.Round) (protocol.Params, error) {
	var p protocol.Params
	if len(rq.W) != size || len(rq.Z) != size {
		return p, fmt.Errorf("server: round carries %d/%d values for a session of %d processors",
			len(rq.W), len(rq.Z), size)
	}
	// The wire form carries Z in the network's own storage layout (Z[0] is
	// the root's unused zero slot), so build the struct directly and
	// validate.
	net := &dlt.Network{
		W: append([]float64(nil), rq.W...),
		Z: append([]float64(nil), rq.Z...),
	}
	if err := net.Validate(); err != nil {
		return p, fmt.Errorf("server: bad network: %w", err)
	}
	cfg := core.Config{Fine: rq.Fine, AuditProb: rq.AuditProb, SolutionBonus: rq.SolutionBonus}
	if err := cfg.Validate(); err != nil {
		return p, fmt.Errorf("server: bad config: %w", err)
	}
	if rq.TimeoutNs < 0 || time.Duration(rq.TimeoutNs) > maxRoundTimeout {
		return p, fmt.Errorf("server: timeout %v outside [0,%v]", time.Duration(rq.TimeoutNs), maxRoundTimeout)
	}
	if rq.Retries < -1 || rq.Retries > maxRoundRetries {
		return p, fmt.Errorf("server: retries %d outside [-1,%d]", rq.Retries, maxRoundRetries)
	}
	if rq.Backoff < 0 || rq.Backoff > 16 {
		return p, fmt.Errorf("server: backoff %v outside [0,16]", rq.Backoff)
	}
	if rq.LambdaUnit < 0 || rq.LambdaUnit > 1 {
		return p, fmt.Errorf("server: lambda unit %v outside [0,1]", rq.LambdaUnit)
	}

	profile := agent.AllTruthful(size)
	for _, d := range rq.Deviants {
		if d.Pos <= 0 || d.Pos >= size {
			return p, fmt.Errorf("server: deviant position %d outside [1,%d] (the root stays honest)", d.Pos, size-1)
		}
		b, err := cli.ParseBehavior(d.Spec)
		if err != nil {
			return p, fmt.Errorf("server: deviant %d: %w", d.Pos, err)
		}
		profile = profile.WithDeviant(d.Pos, b)
	}

	inj, err := roundInjector(size, rq)
	if err != nil {
		return p, err
	}

	return protocol.Params{
		Net:        net,
		Profile:    profile,
		Cfg:        cfg,
		Seed:       rq.Seed,
		LambdaUnit: rq.LambdaUnit,
		Inject:     inj,
		Recovery: protocol.RecoveryConfig{
			Timeout: time.Duration(rq.TimeoutNs),
			Retries: rq.Retries,
			Backoff: rq.Backoff,
		},
	}, nil
}

// DetectorBudget computes a round's worst-case single-receive wait: the
// (defaulted) base timeout, expanded by the backoff-multiplied retry
// ladder and the protocol's phase scaling (which grows linearly with the
// population so failure attribution stays deterministic — see
// protocol.recvScale). The daemon refuses rounds whose budget exceeds
// Config.MaxDetectorWait: one crashed processor would otherwise pin a
// round slot for that long.
func DetectorBudget(size int, rq wire.Round) time.Duration {
	t := time.Duration(rq.TimeoutNs)
	if t == 0 {
		t = 150 * time.Millisecond // protocol.DefaultRecovery
	}
	retries := rq.Retries
	if retries == 0 {
		retries = 3
	}
	if retries < 0 {
		retries = 0
	}
	backoff := rq.Backoff
	if backoff < 1 {
		// Mirror protocol.RecoveryConfig.withDefaults exactly: any backoff
		// below 1 runs with the default of 2, so budgeting a fractional
		// backoff with its shrinking geometric sum would undercount the
		// real ladder by up to ~2^retries.
		backoff = 2
	}
	sum, w := 0.0, 1.0
	for i := 0; i <= retries; i++ {
		sum += w
		w *= backoff
	}
	// Admissible extremes (10s timeout, 16 retries, backoff 16) overflow
	// int64 nanoseconds, and a wrapped-negative Duration would slip past
	// the MaxDetectorWait gate. Compare in the float domain and saturate:
	// a saturated budget exceeds any configurable MaxDetectorWait.
	f := float64(t) * sum * float64(4*size)
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	return time.Duration(f)
}

// roundInjector builds the fault plan a round request ships, if any.
func roundInjector(size int, rq wire.Round) (fault.Injector, error) {
	if len(rq.Faults) == 0 {
		return nil, nil
	}
	if len(rq.Faults) > maxFaultRules {
		return nil, fmt.Errorf("server: %d fault rules exceed %d", len(rq.Faults), maxFaultRules)
	}
	rules := make([]fault.Rule, len(rq.Faults))
	for i, f := range rq.Faults {
		if f.Kind < uint8(fault.Drop) || f.Kind > uint8(fault.Stall) {
			return nil, fmt.Errorf("server: fault rule %d: unknown kind %d", i, f.Kind)
		}
		if f.Phase > uint8(fault.PhaseBill) {
			return nil, fmt.Errorf("server: fault rule %d: unknown phase %d", i, f.Phase)
		}
		if f.Proc < fault.AnyProc || f.Proc >= size {
			return nil, fmt.Errorf("server: fault rule %d: processor %d outside [-1,%d)", i, f.Proc, size)
		}
		if f.Prob < 0 || f.Prob > 1 {
			return nil, fmt.Errorf("server: fault rule %d: probability %v outside [0,1]", i, f.Prob)
		}
		if f.Delay < 0 || time.Duration(f.Delay) > maxFaultDelay {
			return nil, fmt.Errorf("server: fault rule %d: delay %v outside [0,%v]", i, time.Duration(f.Delay), maxFaultDelay)
		}
		if f.Times < 0 {
			return nil, fmt.Errorf("server: fault rule %d: negative budget %d", i, f.Times)
		}
		rules[i] = fault.Rule{
			Kind:  fault.Kind(f.Kind),
			Proc:  f.Proc,
			Phase: fault.Phase(f.Phase),
			Prob:  f.Prob,
			Delay: time.Duration(f.Delay),
			Times: f.Times,
		}
	}
	return fault.NewPlan(rq.FaultSeed, rules...), nil
}

// ResultToWire projects a protocol result onto the wire response. Exported
// so tests can apply the same projection to in-process runs and compare
// encodings bit for bit.
func ResultToWire(seq uint64, res *protocol.Result) wire.RoundResult {
	rr := wire.RoundResult{
		Seq:           seq,
		Completed:     res.Completed,
		SolutionFound: res.SolutionFound,
		TermReason:    res.TermReason,
		Bids:          res.Bids,
		Retained:      res.Retained,
		Utilities:     res.Utilities,
		Messages:      res.Stats.Messages,
		Signatures:    res.Stats.Signatures,
		Verifications: res.Stats.Verifications,
	}
	if res.Ledger != nil {
		rr.NetZero = res.Ledger.NetZero(netZeroTol)
		rr.Outlay = res.Ledger.MechanismOutlay()
	}
	for _, d := range res.Detections {
		rr.Detections = append(rr.Detections, wire.DetectionRec{
			Violation: string(d.Violation),
			Offender:  d.Offender,
			Reporter:  d.Reporter,
			Fine:      d.Fine,
			Reward:    d.Reward,
		})
	}
	return rr
}

// JournalToWire projects a protocol result's payment journal onto the
// entries a settled round's journal artifact records: every transfer, in
// order, with the fields a tenant's book applies.
func JournalToWire(res *protocol.Result) []wire.JournalEntry {
	if res.Ledger == nil {
		return nil
	}
	out := make([]wire.JournalEntry, 0, res.Ledger.Len())
	res.Ledger.ForEachEntry(func(e payment.Entry) {
		out = append(out, wire.JournalEntry{From: e.From, To: e.To, Amount: e.Amount})
	})
	return out
}
