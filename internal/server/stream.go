package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"dlsmech/internal/ledger"
	"dlsmech/internal/protocol"
	"dlsmech/internal/wire"
)

// Stream end codes (wire.StreamEnd.Code).
const (
	StreamOK        = "ok"         // every requested load settled and was answered
	StreamDraining  = "draining"   // server shutdown interrupted the stream
	StreamRunFailed = "run-failed" // a load failed; a SrvError frame precedes the end
)

// streamLoad hands one submitted load from the producer (the connection
// handler, which runs each exchange synchronously inside Pipeline.Submit)
// to the consumer goroutine that settles, journals and answers it.
type streamLoad struct {
	seq    uint64
	ticket *protocol.Ticket
	rl     *ledger.RoundLog
}

// streamConsumer is the single writer of the connection while a stream is
// in flight: it waits on tickets strictly in submit order, closes each
// load's evidence (fsync-before-ack), and writes the RoundResult frames.
// The first failure sticks; later loads still drain (their evidence stays
// open for crash recovery) but are not acknowledged.
type streamConsumer struct {
	s      *Server
	cs     *connState
	tenant string
	log    *ledger.SessionLog // nil when no ledger is configured
	batch  int                // settles covered per durability barrier (>= 1)

	failed  atomic.Bool
	code    string // SrvError code for the sticking failure ("" = write failure)
	failSeq uint64
	msg     string
	served  uint32
	wbuf    []byte
}

func (c *streamConsumer) fail(seq uint64, code, msg string) {
	if c.failed.CompareAndSwap(false, true) {
		c.failSeq, c.code, c.msg = seq, code, msg
	}
}

// streamAck is one settled load whose close is journaled but whose
// durability barrier is still pending — the unit of a group commit.
type streamAck struct {
	rr  wire.RoundResult
	res *protocol.Result
}

// run drains the load channel with a group-committed durability barrier:
// each load's settle is journaled as it arrives (CloseDeferred), and one
// fsync covers up to `batch` consecutive settles before their result
// frames go on the wire. fsync-before-ack still holds per load — no result
// is written before a Sync covering its settle returns nil — but the
// barrier's fixed cost amortizes across the pipeline window, which a
// sequential round loop (ack before next request) structurally cannot do.
// Inter-settle latency is observed between consecutive acknowledged loads;
// under group commit acks arrive in bursts, so the histogram spreads
// toward both tails of the batch window.
func (c *streamConsumer) run(loads <-chan streamLoad) {
	var prev time.Time
	ready := make([]streamAck, 0, c.batch)
	// flush makes the pending settles durable with one barrier, then
	// acknowledges them in order. On a barrier or write failure the whole
	// pending batch goes unacknowledged (their settles are in the log;
	// crash recovery applies their journals).
	flush := func() {
		if len(ready) == 0 {
			return
		}
		if c.log != nil {
			if err := c.log.Sync(); err != nil {
				c.s.met.ledgerRoundFailures.Inc()
				c.fail(ready[0].rr.Seq, CodeLedgerFailed, err.Error())
				ready = ready[:0]
				return
			}
		}
		for _, a := range ready {
			now := time.Now()
			if !prev.IsZero() {
				c.s.met.interSettleSeconds.Observe(now.Sub(prev).Seconds())
			}
			prev = now
			c.s.met.roundsServed.Inc()
			c.s.met.streamLoads.Inc()
			c.s.tenants.settle(c.tenant, a.res.Ledger.Journal())
			c.wbuf = wire.AppendRoundResult(c.wbuf[:0], a.rr)
			if err := c.cs.write(c.wbuf); err != nil {
				c.fail(a.rr.Seq, "", err.Error())
				ready = ready[:0]
				return
			}
			c.served++
		}
		ready = ready[:0]
	}
	for ld := range loads {
		res := ld.ticket.Wait()
		if c.failed.Load() {
			continue
		}
		rr := ResultToWire(ld.seq, res)
		if ld.rl != nil {
			ld.rl.RecordJournal(JournalToWire(res))
			if err := ld.rl.CloseDeferred(rr); err != nil {
				c.s.met.ledgerRoundFailures.Inc()
				c.fail(ld.seq, CodeLedgerFailed, err.Error())
				flush() // settles deferred before the failure are still good
				continue
			}
		}
		ready = append(ready, streamAck{rr: rr, res: res})
		if len(ready) >= c.batch {
			flush()
		}
	}
	flush()
}

// serveStream validates, executes and answers one pipelined stream request:
// Count loads derived from the embedded base round (load k runs with
// Seq+k and Seed+SeedStride·k) flow through a protocol.Pipeline of the
// requested depth on the connection's warm session. The stream holds ONE
// round slot for its whole duration — its concurrency cost is one session's
// goroutines, exactly like a sequential round, just kept busy.
//
// Results are answered strictly in submit order, each preceded by its
// durable evidence settle when a ledger is configured. The stream ends with
// a StreamEnd frame: "ok" after Count results, "draining" when shutdown
// interrupts it, "run-failed" (preceded by a SrvError naming the load)
// when a load cannot run or settle durably. A non-nil return closes the
// connection.
func (s *Server) serveStream(cs *connState, hello wire.Hello, ps *pooledSession, sq wire.Stream) error {
	// refuse answers a whole-stream refusal: the typed SrvError naming the
	// reason, then the StreamEnd every stream answer closes with (Served 0).
	// The connection stays usable afterwards.
	refuse := func(code, msg, endCode string) error {
		if err := cs.writeError(s, sq.Round.Seq, code, msg); err != nil {
			return errClosedResponse
		}
		cs.wbuf = wire.AppendStreamEnd(cs.wbuf[:0], wire.StreamEnd{Seq: sq.Round.Seq, Code: endCode, Msg: msg})
		if err := cs.write(cs.wbuf); err != nil {
			return errClosedResponse
		}
		return nil
	}
	if int(sq.Count) > s.cfg.MaxStreamCount {
		s.met.roundsRejected.Inc()
		return refuse(CodeBadRound,
			fmt.Sprintf("stream count %d exceeds %d", sq.Count, s.cfg.MaxStreamCount), StreamRunFailed)
	}
	if int(sq.Depth) > s.cfg.MaxStreamDepth {
		s.met.roundsRejected.Inc()
		return refuse(CodeBadRound,
			fmt.Sprintf("stream depth %d exceeds %d", sq.Depth, s.cfg.MaxStreamDepth), StreamRunFailed)
	}
	// Validate the base round up front; per-load requests differ only in
	// Seq/Seed, which no validation rule depends on.
	if _, err := RoundParams(hello.Size, sq.Round); err != nil {
		s.met.roundsRejected.Inc()
		return refuse(CodeBadRound, err.Error(), StreamRunFailed)
	}
	if budget := DetectorBudget(hello.Size, sq.Round); budget > s.cfg.MaxDetectorWait {
		s.met.roundsRejected.Inc()
		return refuse(CodeBadRound,
			fmt.Sprintf("worst-case detector budget %v exceeds %v; lower the timeout or retries", budget, s.cfg.MaxDetectorWait), StreamRunFailed)
	}

	select {
	case s.roundSlots <- struct{}{}:
	case <-s.drainCh:
		return refuse(CodeDraining, "server shutting down", StreamDraining)
	}
	defer func() { <-s.roundSlots }()

	pipe, err := protocol.NewPipeline(ps.sess, int(sq.Depth))
	if err != nil {
		return refuse(CodeBadRound, err.Error(), StreamRunFailed)
	}

	cons := &streamConsumer{s: s, cs: cs, tenant: hello.Tenant, log: ps.log, batch: int(sq.Depth)}
	loads := make(chan streamLoad, sq.Depth)
	consDone := make(chan struct{})
	go func() {
		defer close(consDone)
		cons.run(loads)
	}()

	endCode, endMsg := StreamOK, ""
	var failSeq uint64
	cs.setInRound(true)
	for k := uint64(0); k < uint64(sq.Count); k++ {
		if s.Draining() {
			endCode, endMsg = StreamDraining, "server shutting down"
			break
		}
		if cons.failed.Load() {
			break // the consumer carries the reason
		}
		rq := sq.Round
		rq.Seq = sq.Round.Seq + k
		rq.Seed = sq.Round.Seed + sq.SeedStride*k
		params, err := RoundParams(hello.Size, rq)
		if err != nil {
			endCode, endMsg, failSeq = StreamRunFailed, err.Error(), rq.Seq
			break
		}
		var rl *ledger.RoundLog
		if ps.log != nil {
			rl, err = ps.log.OpenRound(rq)
			if err != nil {
				s.met.ledgerRoundFailures.Inc()
				endCode, endMsg, failSeq = StreamRunFailed, err.Error(), rq.Seq
				break
			}
			params.Evidence, params.Gen = rl, rl.Gen()
		}
		ticket, err := pipe.Submit(params)
		if err != nil {
			if rl != nil {
				if verr := rl.Void(CodeRunFailed, err.Error()); verr != nil {
					s.met.ledgerRoundFailures.Inc()
					s.cfg.Logf("dlsd: ledger void seq %d: %v", rq.Seq, verr)
				}
			}
			s.met.roundsFailed.Inc()
			endCode, endMsg, failSeq = StreamRunFailed, err.Error(), rq.Seq
			break
		}
		s.met.pipelineOccupancy.Set(float64(pipe.InFlight()))
		loads <- streamLoad{seq: rq.Seq, ticket: ticket, rl: rl}
	}
	close(loads)
	pipe.Close()
	<-consDone
	cs.setInRound(false)
	s.met.pipelineOccupancy.Set(0)
	s.met.streamsServed.Inc()

	// From here the producer is the connection's only writer again.
	if cons.failed.Load() {
		if cons.code == "" {
			// The result write itself failed: the peer is gone.
			return errClosedResponse
		}
		if err := cs.writeError(s, cons.failSeq, cons.code, cons.msg); err != nil {
			return errClosedResponse
		}
		endCode, endMsg = StreamRunFailed, cons.msg
	} else if endCode == StreamRunFailed {
		if err := cs.writeError(s, failSeq, CodeRunFailed, endMsg); err != nil {
			return errClosedResponse
		}
	}
	cs.wbuf = wire.AppendStreamEnd(cs.wbuf[:0], wire.StreamEnd{
		Seq:    sq.Round.Seq,
		Served: cons.served,
		Code:   endCode,
		Msg:    endMsg,
	})
	if err := cs.write(cs.wbuf); err != nil {
		return errClosedResponse
	}
	if endCode == StreamDraining {
		// Mirror the sequential loop's drain answer: end the connection.
		return fmt.Errorf("server: stream interrupted by drain")
	}
	return nil
}
