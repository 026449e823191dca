package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"time"

	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/ledger"
	"dlsmech/internal/obs"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// The traced replay re-serves a workload's first requests in process, in
// the order dlsd's serveRound and serveStream run them, over loopback socket
// pairs and a fresh file ledger, timing every public call on the way. Its
// stages, in serve-path order:
const (
	stClientSend  = iota // client AppendRound/AppendStream + write
	stDecode             // ReadFrame + DecodeRound/DecodeStream
	stValidate           // RoundParams + DetectorBudget
	stOpenRound          // SessionLog.OpenRound
	stRun                // Session.Run (Pipeline.Submit on streams)
	stClose              // RoundLog.CloseDeferred
	stFsync              // SessionLog.Sync
	stEncodeWrite        // ResultToWire + AppendRoundResult + write
	stClientRecv         // client ReadFrame + DecodeRoundResult
	nStages
)

var stageNames = [nStages]string{
	"client.send", "wire.decode", "server.validate", "ledger.open_round", "protocol.run",
	"ledger.close", "ledger.fsync", "wire.encode_write", "client.recv",
}

type stageSums [nStages]atomic.Int64

// stageTimer times one request's stages. Its zero value is the untraced
// pass: start returns a shared no-op and records nothing.
type stageTimer struct {
	tr     *obs.Tracer
	parent uint64
	proc   int
	sums   *stageSums
}

func nop() {}

// start opens stage st and returns the function that closes it. Stream
// stages run on several goroutines at once; each stage name is only ever
// opened by one of them, so span identities stay deterministic.
func (t stageTimer) start(st int) func() {
	if t.sums == nil {
		return nop
	}
	sp := t.tr.Start(t.parent, stageNames[st], t.proc)
	t0 := time.Now()
	return func() {
		t.sums[st].Add(int64(time.Since(t0)))
		sp.End()
	}
}

// timedSink wraps the RoundLog the protocol records evidence into and sums
// the time spent inside it (calls arrive from every processor goroutine).
type timedSink struct {
	rl   *ledger.RoundLog
	busy *atomic.Int64
}

func (s timedSink) since(t time.Time) { s.busy.Add(int64(time.Since(t))) }

func (s timedSink) RecordBid(slot int, sg sign.Signed) {
	defer s.since(time.Now())
	s.rl.RecordBid(slot, sg)
}

func (s timedSink) RecordAlloc(g wire.Alloc) {
	defer s.since(time.Now())
	s.rl.RecordAlloc(g)
}

func (s timedSink) RecordLoadAck(slot int, l wire.Load) {
	defer s.since(time.Now())
	s.rl.RecordLoadAck(slot, l)
}

func (s timedSink) RecordGrievance(gr wire.Grievance) {
	defer s.since(time.Now())
	s.rl.RecordGrievance(gr)
}

func (s timedSink) RecordBill(b wire.Bill) {
	defer s.since(time.Now())
	s.rl.RecordBill(b)
}

// rootPhases times the root processor's phase brackets through the
// protocol's existing Hooks.
type rootPhases struct {
	obs.Nop
	start [4]time.Time
	sum   [4]time.Duration
}

var phaseNames = [4]string{"bid", "alloc", "load", "bill"}

func phaseIndex(phase string) int {
	for i, p := range phaseNames {
		if p == phase {
			return i
		}
	}
	return -1
}

func (h *rootPhases) OnPhaseStart(proc int, phase string) {
	if i := phaseIndex(phase); proc == 0 && i >= 0 {
		h.start[i] = time.Now()
	}
}

func (h *rootPhases) OnPhaseEnd(proc int, phase string) {
	if i := phaseIndex(phase); proc == 0 && i >= 0 {
		h.sum[i] += time.Since(h.start[i])
	}
}

// maxDetectorWait is dlsd's default admission cap on a round's worst-case
// detector budget; the replay refuses what the daemon would refuse.
const maxDetectorWait = 60 * time.Second

// replayConn is one connection's state in the replay: both socket ends and
// the server side's session and ledger log.
type replayConn struct {
	hello        wire.Hello
	sess         *protocol.Session
	log          *ledger.SessionLog // nil without a ledger
	cli, srv     *net.TCPConn
	cbuf, sbuf   []byte
	crbuf, srbuf []byte
	respBytes    int64
	recordBusy   *atomic.Int64 // set on the traced pass: the evidence sink times itself into it
}

// streamLoad hands one submitted load from the stream producer to the
// consumer.
type streamLoad struct {
	seq    uint64
	ticket *protocol.Ticket
	rl     *ledger.RoundLog
}

// pass is one replay pass's fresh state: new sessions, a new ledger and
// new socket pairs.
type pass struct {
	conns []*replayConn
	store *ledger.Store
}

// openPass builds a pass's fresh state; a non-nil busy makes it the traced
// pass, whose evidence sink times itself into busy.
func (p *plan) openPass(dir string, busy *atomic.Int64) (*pass, error) {
	ps := &pass{}
	if p.w.durable {
		be, err := ledger.OpenFile(dir, 0)
		if err != nil {
			return nil, err
		}
		ps.store, err = ledger.Open(be, nil)
		if err != nil {
			be.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ps.close()
		return nil, err
	}
	defer ln.Close()
	for _, h := range p.hellos {
		rc := &replayConn{hello: h, sess: protocol.NewSession(h.Size, h.Seed), recordBusy: busy}
		ps.conns = append(ps.conns, rc)
		if ps.store != nil {
			if rc.log, err = ps.store.OpenSession(h); err != nil {
				ps.close()
				return nil, err
			}
		}
		cli, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			ps.close()
			return nil, err
		}
		rc.cli = cli.(*net.TCPConn)
		srv, err := ln.Accept()
		if err != nil {
			ps.close()
			return nil, err
		}
		rc.srv = srv.(*net.TCPConn)
		// A whole stream's answers are written before the client reads
		// them back, so both ends buffer well past one stream.
		for _, c := range []*net.TCPConn{rc.cli, rc.srv} {
			if err := c.SetReadBuffer(1 << 20); err != nil {
				ps.close()
				return nil, err
			}
			if err := c.SetWriteBuffer(1 << 20); err != nil {
				ps.close()
				return nil, err
			}
		}
	}
	return ps, nil
}

func (ps *pass) close() {
	for _, rc := range ps.conns {
		if rc.cli != nil {
			rc.cli.Close()
		}
		if rc.srv != nil {
			rc.srv.Close()
		}
	}
	if ps.store != nil {
		ps.store.Close()
	}
}

// serveRound replays serveRound for one request: the client writes the
// frame, the server side decodes, validates, opens the ledger round, runs
// it, closes and fsyncs the evidence, encodes and writes the answer, and
// the client reads it back.
func (rc *replayConn) serveRound(rq wire.Round, deviant int, t stageTimer) error {
	end := t.start(stClientSend)
	rc.cbuf = wire.AppendRound(rc.cbuf[:0], rq)
	_, err := rc.cli.Write(rc.cbuf)
	end()
	if err != nil {
		return err
	}

	end = t.start(stDecode)
	frame, _, err := wire.ReadFrame(rc.srv, rc.srbuf, 0)
	rc.srbuf = frame
	var got wire.Round
	if err == nil {
		got, _, err = wire.DecodeRound(frame)
	}
	end()
	if err != nil {
		return err
	}

	end = t.start(stValidate)
	params, err := server.RoundParams(rc.hello.Size, got)
	budget := server.DetectorBudget(rc.hello.Size, got)
	end()
	if err != nil {
		return err
	}
	if budget > maxDetectorWait {
		return fmt.Errorf("seq %d: detector budget %v exceeds %v", got.Seq, budget, maxDetectorWait)
	}

	var rl *ledger.RoundLog
	if rc.log != nil {
		end = t.start(stOpenRound)
		rl, err = rc.log.OpenRound(got)
		end()
		if err != nil {
			return err
		}
		params.Evidence = rl
		if rc.recordBusy != nil {
			params.Evidence = timedSink{rl: rl, busy: rc.recordBusy}
		}
	}

	end = t.start(stRun)
	res, err := rc.sess.Run(params)
	end()
	if err != nil {
		return err
	}

	end = t.start(stEncodeWrite)
	rr := server.ResultToWire(got.Seq, res)
	end()
	if rl != nil {
		end = t.start(stClose)
		err = rl.CloseDeferred(rr)
		end()
		if err != nil {
			return err
		}
		end = t.start(stFsync)
		err = rc.log.Sync()
		end()
		if err != nil {
			return err
		}
	}
	end = t.start(stEncodeWrite)
	rc.sbuf = wire.AppendRoundResult(rc.sbuf[:0], rr)
	_, err = rc.srv.Write(rc.sbuf)
	end()
	if err != nil {
		return err
	}
	rc.respBytes += int64(len(rc.sbuf))

	end = t.start(stClientRecv)
	frame, _, err = wire.ReadFrame(rc.cli, rc.crbuf, 0)
	rc.crbuf = frame
	var back wire.RoundResult
	if err == nil {
		back, _, err = wire.DecodeRoundResult(frame)
	}
	end()
	if err != nil {
		return err
	}
	return checkResult(rq, deviant, back)
}

// serveStream replays serveStream for one stream request: after the frame
// is decoded and validated, a producer submits every load into a pipeline
// of the requested depth while a consumer goroutine settles, journals,
// group-commits and writes the answers; the client then reads them back.
func (rc *replayConn) serveStream(rq *request, t stageTimer) error {
	end := t.start(stClientSend)
	rc.cbuf = wire.AppendStream(rc.cbuf[:0], rq.stream())
	_, err := rc.cli.Write(rc.cbuf)
	end()
	if err != nil {
		return err
	}

	end = t.start(stDecode)
	frame, _, err := wire.ReadFrame(rc.srv, rc.srbuf, 0)
	rc.srbuf = frame
	var sq wire.Stream
	if err == nil {
		sq, _, err = wire.DecodeStream(frame)
	}
	end()
	if err != nil {
		return err
	}

	end = t.start(stValidate)
	_, err = server.RoundParams(rc.hello.Size, sq.Round)
	budget := server.DetectorBudget(rc.hello.Size, sq.Round)
	end()
	if err != nil {
		return err
	}
	if budget > maxDetectorWait {
		return fmt.Errorf("stream seq %d: detector budget %v exceeds %v", sq.Round.Seq, budget, maxDetectorWait)
	}

	end = t.start(stRun)
	pipe, err := protocol.NewPipeline(rc.sess, int(sq.Depth))
	end()
	if err != nil {
		return err
	}

	// Buffered to the pipeline depth, as in the daemon: the producer runs
	// at most depth loads ahead of the consumer.
	loads := make(chan streamLoad, sq.Depth)
	consErr := make(chan error, 1)
	go func() {
		consErr <- rc.consume(loads, int(sq.Depth), t)
	}()
	var prodErr error
	for k := uint64(0); k < uint64(sq.Count); k++ {
		r := sq.Round
		r.Seq += k
		r.Seed += sq.SeedStride * k
		end = t.start(stValidate)
		params, err := server.RoundParams(rc.hello.Size, r)
		end()
		if err != nil {
			prodErr = err
			break
		}
		var rl *ledger.RoundLog
		if rc.log != nil {
			end = t.start(stOpenRound)
			rl, err = rc.log.OpenRound(r)
			end()
			if err != nil {
				prodErr = err
				break
			}
			params.Evidence = rl
			if rc.recordBusy != nil {
				params.Evidence = timedSink{rl: rl, busy: rc.recordBusy}
			}
		}
		end = t.start(stRun)
		ticket, err := pipe.Submit(params)
		end()
		if err != nil {
			prodErr = err
			break
		}
		loads <- streamLoad{seq: r.Seq, ticket: ticket, rl: rl}
	}
	close(loads)
	pipe.Close()
	if err := <-consErr; err != nil {
		return err
	}
	if prodErr != nil {
		return prodErr
	}

	end = t.start(stEncodeWrite)
	rc.sbuf = wire.AppendStreamEnd(rc.sbuf[:0], wire.StreamEnd{Seq: sq.Round.Seq, Served: sq.Count, Code: server.StreamOK})
	_, err = rc.srv.Write(rc.sbuf)
	end()
	if err != nil {
		return err
	}

	end = t.start(stClientRecv)
	defer end()
	for k := 0; ; k++ {
		frame, typ, err := wire.ReadFrame(rc.cli, rc.crbuf, 0)
		rc.crbuf = frame
		if err != nil {
			return err
		}
		if typ == wire.TypeStreamEnd {
			if k != streamLoads {
				return fmt.Errorf("stream seq %d: %d results before its end", sq.Round.Seq, k)
			}
			return nil
		}
		rr, _, err := wire.DecodeRoundResult(frame)
		if err != nil {
			return err
		}
		if err := checkResult(rq.load(k), 0, rr); err != nil {
			return err
		}
	}
}

// consume is the stream consumer: in submit order it waits for each load's
// settlement, journals its close, and once depth settles are pending makes
// them durable with one fsync before writing their answers.
func (rc *replayConn) consume(loads <-chan streamLoad, depth int, t stageTimer) error {
	var ready []wire.RoundResult
	var firstErr error
	flush := func() {
		if len(ready) == 0 || firstErr != nil {
			return
		}
		if rc.log != nil {
			end := t.start(stFsync)
			err := rc.log.Sync()
			end()
			if err != nil {
				firstErr = err
				return
			}
		}
		end := t.start(stEncodeWrite)
		for _, rr := range ready {
			rc.sbuf = wire.AppendRoundResult(rc.sbuf[:0], rr)
			rc.respBytes += int64(len(rc.sbuf))
			if _, err := rc.srv.Write(rc.sbuf); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		end()
		ready = ready[:0]
	}
	for ld := range loads {
		res := ld.ticket.Wait()
		if firstErr != nil {
			continue
		}
		end := t.start(stEncodeWrite)
		rr := server.ResultToWire(ld.seq, res)
		end()
		if ld.rl != nil {
			end = t.start(stClose)
			err := ld.rl.CloseDeferred(rr)
			end()
			if err != nil {
				firstErr = err
				continue
			}
		}
		ready = append(ready, rr)
		if len(ready) >= depth {
			flush()
		}
	}
	flush()
	return firstErr
}

// serve replays request i on one pass's state and returns its wall time.
// With sums set it is the traced pass: every stage is timed and recorded as
// a span under one root span per request.
func (p *plan) serve(ps *pass, i int, tr *obs.Tracer, sums *stageSums) (time.Duration, error) {
	rq := &p.reqs[i]
	c := i % conns
	name := "round"
	if p.w.stream {
		name = "stream"
	}
	var t stageTimer
	var root *obs.Span
	if sums != nil {
		root = tr.Start(0, name, c)
		t = stageTimer{tr: tr, parent: root.SpanID(), proc: c, sums: sums}
	}
	t0 := time.Now()
	var err error
	if p.w.stream {
		err = ps.conns[c].serveStream(rq, t)
	} else {
		err = ps.conns[c].serveRound(rq.round, rq.deviant, t)
	}
	d := time.Since(t0)
	root.End()
	if err != nil {
		return d, fmt.Errorf("replay %s seq %d: %w", name, rq.round.Seq, err)
	}
	return d, nil
}

// bare is the third pass: every load runs through Session.Run (a Pipeline
// on the stream workload) with no evidence sink and the root phase hooks
// attached, and each request's own inputs feed the sign, dlt and core
// micro-measurements.
type bare struct {
	sess                     []*protocol.Session
	signers                  [][]*sign.Signer
	alloc                    dlt.Allocation
	out                      core.Outcome
	phases                   rootPhases
	run, verify, solve, eval time.Duration
}

func newBare(p *plan) *bare {
	b := &bare{}
	for _, h := range p.hellos {
		b.sess = append(b.sess, protocol.NewSession(h.Size, h.Seed))
		var ss []*sign.Signer
		for i := 0; i < h.Size; i++ {
			ss = append(ss, sign.NewSigner(i, h.Seed))
		}
		b.signers = append(b.signers, ss)
	}
	return b
}

func (b *bare) step(w workload, c int, rq *request) error {
	if err := b.runRequest(w, b.sess[c], rq); err != nil {
		return err
	}

	// m+1 freshly signed bids (salted by the request) against a fresh PKI,
	// so every verification is a memo miss.
	pki := sign.NewPKI()
	msgs := make([]sign.Signed, len(b.signers[c]))
	for j, s := range b.signers[c] {
		pki.MustRegister(j, s.Public())
		var payload [16]byte
		binary.LittleEndian.PutUint64(payload[:], math.Float64bits(rq.round.W[j]))
		binary.LittleEndian.PutUint64(payload[8:], rq.round.Seq)
		msgs[j] = s.Sign(payload[:])
	}
	t0 := time.Now()
	err := pki.VerifyBatch(msgs)
	b.verify += time.Since(t0)
	if err != nil {
		return fmt.Errorf("verify batch seq %d: %w", rq.round.Seq, err)
	}

	net := &dlt.Network{W: rq.round.W, Z: rq.round.Z}
	t0 = time.Now()
	dlt.SolveBoundaryInto(net, &b.alloc)
	b.solve += time.Since(t0)

	cfg := core.Config{Fine: rq.round.Fine, AuditProb: rq.round.AuditProb, SolutionBonus: rq.round.SolutionBonus}
	t0 = time.Now()
	err = core.EvaluateInto(&b.out, net, core.Report{Bids: rq.round.W}, cfg)
	b.eval += time.Since(t0)
	if err != nil {
		return fmt.Errorf("evaluate seq %d: %w", rq.round.Seq, err)
	}
	return nil
}

func (b *bare) runRequest(w workload, sess *protocol.Session, rq *request) error {
	size := sess.Size()
	if !w.stream {
		params, err := server.RoundParams(size, rq.round)
		if err != nil {
			return err
		}
		params.Hooks = &b.phases
		t0 := time.Now()
		_, err = sess.Run(params)
		b.run += time.Since(t0)
		return err
	}
	pipe, err := protocol.NewPipeline(sess, streamDepth)
	if err != nil {
		return err
	}
	defer pipe.Close()
	for k := 0; k < streamLoads; k++ {
		params, err := server.RoundParams(size, rq.load(k))
		if err != nil {
			return err
		}
		params.Hooks = &b.phases
		t0 := time.Now()
		_, err = pipe.Submit(params)
		b.run += time.Since(t0)
		if err != nil {
			return err
		}
	}
	return nil
}

// replay runs the three passes — untraced (wall time only), traced, and
// bare with hooks — over the workload's first n requests and returns the
// per-layer figures they give. Each pass has its own fresh sessions and
// ledger; they advance request by request, taking turns going first, so a
// drift in machine speed or cache warmth favours none of them. liveP50 is
// the measured phase's median latency per request.
func (p *plan) replay(e *env, work string, n int, liveP50 float64) (map[string]float64, error) {
	n = min(n, len(p.reqs))
	ops := float64(n * p.w.opsPer())
	untraced, err := p.openPass(filepath.Join(work, "replay-untraced"), nil)
	if err != nil {
		return nil, err
	}
	defer untraced.close()
	var busy atomic.Int64
	traced, err := p.openPass(filepath.Join(work, "replay-traced"), &busy)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	b := newBare(p)
	tr := obs.NewTracer()
	var sums stageSums
	var wallUntraced, wallTraced time.Duration
	var walls []float64
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			var d time.Duration
			var err error
			switch (i + k) % 3 {
			case 0:
				d, err = p.serve(untraced, i, nil, nil)
				wallUntraced += d
				walls = append(walls, ms(d))
			case 1:
				d, err = p.serve(traced, i, tr, &sums)
				wallTraced += d
			case 2:
				err = b.step(p.w, i%conns, &p.reqs[i])
			}
			if err != nil {
				return nil, err
			}
		}
	}
	if err := writeTrace(e, p.w.name, tr); err != nil {
		return nil, err
	}

	var resp int64
	for _, rc := range traced.conns {
		resp += rc.respBytes
	}
	stage := func(st int) float64 { return float64(sums[st].Load()) / ops }
	var stageTotal float64
	for st := range sums {
		stageTotal += float64(sums[st].Load())
	}
	us, msf := float64(time.Microsecond), float64(time.Millisecond)
	runMs := stage(stRun) / msf
	bareMs := float64(b.run) / ops / msf
	v := map[string]float64{
		"wire.decode_us":        stage(stDecode) / us,
		"wire.encode_write_us":  stage(stEncodeWrite) / us,
		"wire.client_us":        (stage(stClientSend) + stage(stClientRecv)) / us,
		"wire.response_bytes":   float64(resp) / ops,
		"server.validate_us":    stage(stValidate) / us,
		"protocol.run_ms":       runMs,
		"protocol.run_bare_ms":  bareMs,
		"ledger.open_round_us":  stage(stOpenRound) / us,
		"ledger.record_busy_ms": float64(busy.Load()) / ops / msf,
		"ledger.record_path_ms": runMs - bareMs,
		"ledger.close_us":       stage(stClose) / us,
		"ledger.fsync_ms":       stage(stFsync) / msf,
		"sign.verify_batch_us":  float64(b.verify) / float64(n) / us,
		"dlt.solve_us":          float64(b.solve) / float64(n) / us,
		"core.evaluate_us":      float64(b.eval) / float64(n) / us,
		"trace.stage_sum_frac":  stageTotal / float64(wallTraced),
		"trace.overhead_frac":   float64(wallTraced-wallUntraced) / float64(wallUntraced),
		"trace.unattributed_ms": liveP50 - median(walls),
	}
	for i, name := range phaseNames {
		v["protocol.phase_"+name+"_ms"] = float64(b.phases.sum[i]) / ops / msf
	}
	return v, nil
}

// writeTrace exports the traced pass as Chrome trace_event JSON and checks
// the file with dlstrace -validate-trace.
func writeTrace(e *env, workload string, tr *obs.Tracer) error {
	path := filepath.Join(e.out, "bench-trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	out, err := exec.Command(filepath.Join(e.bin, "dlstrace"), "-validate-trace", path).CombinedOutput()
	if err != nil {
		return fmt.Errorf("dlstrace -validate-trace %s: %v\n%s", path, err, out)
	}
	return nil
}
