package protocol

import (
	"fmt"

	"dlsmech/internal/core"
	"dlsmech/internal/des"
	"dlsmech/internal/dlt"
	"dlsmech/internal/obs"
	"dlsmech/internal/payment"
)

// billVerdict is the stage-A outcome for one Phase IV bill: the audit coin
// flip and, when it audited, the independently recomputed bill. Everything
// the deferred journaling needs is value-copied here; Proof is zeroed
// because it aliases round-pooled arenas the next exchange overwrites.
type billVerdict struct {
	bill    billMsg
	audited bool
	failed  bool // audit ran and the bill overcharges (or the proof is invalid)
	proofOK bool // the recompute succeeded; want holds what the proof supports
	want    billMsg
}

// settleJob snapshots everything Phase IV settlement needs from a finished
// exchange, so stage B — journaling, Result assembly, the plan solve — can
// run after (or, in a Pipeline, concurrently with) the next round's exchange
// on the same session. The verdict/detection/z arenas are pooled across
// rounds; the ledger and the result slices are fresh per round because they
// escape into the Result.
type settleJob struct {
	size                       int
	cfg                        core.Config
	hooks                      obs.Hooks
	ledger                     *payment.Ledger
	memoC, memoE, memoB, memoS []string // session-lifetime, immutable
	terminated                 bool
	termReason                 string
	failure                    *PhaseError
	solutionFound              bool
	stats                      Stats
	verdicts                   []billVerdict
	detections                 []Detection
	z                          []float64
	bids, retained, utilities  []float64
}

// settle is stage B: apply every bill verdict to the round's ledger in
// processor order (exactly the order the one-stage settlement journaled in),
// fold balances into utilities, assemble the Result and solve the plan. It
// reads only job state plus the immutable session memo tables, so it is safe
// against a concurrent resetRound/exchange on the owning runner.
func (job *settleJob) settle() *Result {
	for i := range job.verdicts {
		job.applyVerdict(&job.verdicts[i])
	}
	res := &Result{
		Completed:     !job.terminated,
		TermReason:    job.termReason,
		Failure:       job.failure,
		Bids:          job.bids,
		Retained:      job.retained,
		Detections:    append([]Detection(nil), job.detections...),
		Ledger:        job.ledger,
		Utilities:     job.utilities,
		SolutionFound: job.solutionFound,
		Stats:         job.stats,
	}
	for i := range res.Utilities {
		res.Utilities[i] += job.ledger.Balance(i)
	}
	if res.Completed {
		if plan, err := dlt.SolveBoundary(&dlt.Network{W: res.Bids, Z: job.z}); err == nil {
			res.Plan = plan
		}
	}
	return res
}

// applyVerdict journals one resolved bill: pay what is due, fine F/q on a
// failed audit. The fine-before-pay order within a failed audit matches the
// one-stage settlement exactly, keeping the journal byte-identical.
func (job *settleJob) applyVerdict(v *billVerdict) {
	j := v.bill.From
	if !v.audited {
		job.payItems(v.bill)
		return
	}
	if v.failed {
		fine := job.cfg.AuditFine()
		_ = job.ledger.Fine(j, fine, payment.KindAuditFine, fmt.Sprintf("audit P%d", j))
		job.detections = append(job.detections, Detection{
			Violation: ViolationOvercharge,
			Offender:  j,
			Reporter:  payment.Mechanism,
			Fine:      fine,
		})
		job.hooks.OnAudit(j, false)
		job.hooks.OnFine(j, payment.Mechanism, string(ViolationOvercharge), fine)
		if v.proofOK {
			job.payItems(v.want) // pay what the proof supports
		}
		return
	}
	job.hooks.OnAudit(j, true)
	job.payItems(v.bill)
}

// payItems journals one bill's pay items. Memo strings come from the
// session-lifetime tables (built once in NewSession), so settlement writes
// no formatting garbage.
func (job *settleJob) payItems(bm billMsg) {
	j := bm.From
	_ = job.ledger.Pay(j, bm.Compensation, payment.KindCompensation, job.memoC[j])
	if bm.Recompense > 0 {
		_ = job.ledger.Pay(j, bm.Recompense, payment.KindRecompense, job.memoE[j])
	}
	if bm.Bonus > 0 {
		_ = job.ledger.Pay(j, bm.Bonus, payment.KindBonus, job.memoB[j])
	} else if bm.Bonus < 0 {
		// A negative bonus (possible off the truthful path) is a charge.
		_ = job.ledger.Fine(j, -bm.Bonus, payment.KindBonus, job.memoB[j])
	}
	if bm.Solution > 0 {
		_ = job.ledger.Pay(j, bm.Solution, payment.KindSolutionBon, job.memoS[j])
	}
}

// Pipeline runs a stream of loads through one warm Session with bounded
// overlap: the settlement of load k (Phase IV journaling, Result assembly,
// the plan solve) runs on a background worker while the exchange of load
// k+1 (Phases I–IV message passing, audit resolution) proceeds on the
// caller's goroutine. Depth bounds the number of unsettled loads in flight;
// depth 1 degenerates to strictly sequential Session.Run semantics.
//
// Per-load allocations and payments are bit-identical to sequential
// Session.Run rounds at equal seeds: the exchange — including the audit
// lottery and the proof recomputation — resolves synchronously inside
// Submit, and the deferred stage reads only job-owned snapshots, so it
// cannot observe the next round. Only journaling order across loads is
// concurrent, and each load journals into its own per-round ledger.
//
// A Pipeline is single-producer: Submit and Close must be called from one
// goroutine. Params.Hooks must tolerate concurrent calls at depth > 1 (the
// settle of load k fires OnAudit/OnFine while the exchange of load k+1
// fires message hooks); obs.Registry-backed hooks are atomic and safe.
type Pipeline struct {
	s       *Session
	depth   int
	free    chan *settleJob
	pending chan *Ticket
	done    chan struct{}
	closed  bool
}

// Ticket tracks one submitted load through the pipeline.
type Ticket struct {
	job  *settleJob
	res  *Result
	done chan struct{}
}

// NewPipeline wraps a session in a pipeline of the given depth (≥ 1). The
// session must not be used directly (Run) while the pipeline is open.
func NewPipeline(s *Session, depth int) (*Pipeline, error) {
	if depth < 1 {
		return nil, fmt.Errorf("protocol: pipeline depth %d (need >= 1)", depth)
	}
	p := &Pipeline{
		s:       s,
		depth:   depth,
		free:    make(chan *settleJob, depth),
		pending: make(chan *Ticket, depth),
		done:    make(chan struct{}),
	}
	for i := 0; i < depth; i++ {
		p.free <- &settleJob{}
	}
	go p.settleLoop()
	return p, nil
}

// Depth returns the configured pipeline depth.
func (p *Pipeline) Depth() int { return p.depth }

// InFlight returns the number of submitted-but-unsettled loads — the
// pipeline occupancy gauge.
func (p *Pipeline) InFlight() int { return p.depth - len(p.free) }

// Submit runs the exchange of one load synchronously on the caller's
// goroutine and enqueues its settlement, blocking first if the pipeline
// already holds depth unsettled loads. Validation and exchange-setup errors
// surface here; a settled round itself never errors (failures are typed
// into the Result).
func (p *Pipeline) Submit(params Params) (*Ticket, error) {
	if p.closed {
		return nil, fmt.Errorf("protocol: pipeline closed")
	}
	job := <-p.free
	if err := p.s.beginRound(params, job); err != nil {
		p.free <- job
		return nil, err
	}
	t := &Ticket{job: job, done: make(chan struct{})}
	p.pending <- t
	return t, nil
}

// settleLoop is the pipeline's single settle worker: strictly in submit
// order, so per-load results and evidence settles land FIFO.
func (p *Pipeline) settleLoop() {
	defer close(p.done)
	for t := range p.pending {
		t.res = t.job.settle()
		t.job.hooks.OnPhaseEnd(obs.Root, obs.PhaseRound)
		job := t.job
		t.job = nil
		close(t.done)
		p.free <- job
	}
}

// Wait blocks until the load settles and returns its Result.
func (t *Ticket) Wait() *Result {
	<-t.done
	return t.res
}

// Close drains the settle worker: every submitted load settles, then the
// worker exits. Tickets remain valid after Close. Idempotent.
func (p *Pipeline) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.pending)
	<-p.done
}

// SteadyState computes the periodic steady-state schedule for a homogeneous
// backlog of `loads` identical unit loads on net: per-load optimal
// fractions, per-load finish times from the multi-installment event
// simulation, and the asymptotic period (the throughput bound of a full
// pipeline). It is the timing oracle the pipeline's per-load plans are
// differentially tested against.
func (p *Pipeline) SteadyState(net *dlt.Network, loads int) (*des.Steady, error) {
	if net.Size() != p.s.size {
		return nil, fmt.Errorf("protocol: pipeline sized for %d processors, network has %d", p.s.size, net.Size())
	}
	return des.SteadyStateSchedule(net, 1, loads, 0)
}
