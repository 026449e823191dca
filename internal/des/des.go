// Package des is a discrete-event simulator for the execution model of
// Sect. 2 of the paper: a linear network with boundary load origination,
// store-and-forward transfers under the one-port model, communication
// front-ends (a processor computes while it forwards), and computation that
// starts only after a processor's entire assignment has arrived.
//
// The simulator exists for two reasons. First, it regenerates Figure 2: the
// Gantt chart of communication (above the axis in the paper) and computation
// (below the axis). Second, it executes *off-plan* runs — processors that
// retain less load than assigned (α̃_i < α_i, the Phase III deviation) or
// compute slower than they bid (w̃_i > w_i) — which the closed-form
// finish-time formulas do not cover. On-plan runs are cross-validated
// against the closed form in experiment E8.
package des

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dlsmech/internal/dlt"
	"dlsmech/internal/obs"
)

// EventKind labels trace entries.
type EventKind int

const (
	// EvArrive marks the completion of a transfer into a processor.
	EvArrive EventKind = iota
	// EvComputeStart marks the start of a processor's computation.
	EvComputeStart
	// EvComputeDone marks the completion of a processor's computation.
	EvComputeDone
	// EvSendStart marks the start of a forwarding transfer.
	EvSendStart
	// EvSendDone marks the completion of a forwarding transfer.
	EvSendDone
)

// String implements fmt.Stringer for trace dumps.
func (k EventKind) String() string {
	switch k {
	case EvArrive:
		return "arrive"
	case EvComputeStart:
		return "compute-start"
	case EvComputeDone:
		return "compute-done"
	case EvSendStart:
		return "send-start"
	case EvSendDone:
		return "send-done"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one entry of the simulation trace.
type Event struct {
	Time float64
	Kind EventKind
	Proc int     // the processor the event concerns
	Load float64 // load quantity involved (received, computed or sent)
}

// Interval is a half-open busy interval [Start, End).
type Interval struct {
	Start, End float64
}

// Duration returns End-Start.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Result collects everything a simulation run produces.
type Result struct {
	Arrive   []float64  // when each processor's assignment finished arriving (0 for P0)
	Finish   []float64  // when each processor finished computing (0 if it computed nothing)
	Retained []float64  // load actually computed by each processor
	Received []float64  // load received by each processor (1 for P0)
	Compute  []Interval // per-processor compute interval (zero-length if idle)
	Send     []Interval // Send[i]: transfer interval on link i (into P_i); Send[0] unused
	Makespan float64
	Trace    []Event
	// Lost is the load destroyed by injected crashes (never computed and
	// never delivered downstream). Zero on fault-free runs; always
	// Σ Retained + Lost = Load.
	Lost float64
	// Crashed flags the processors whose injected crash actually fired
	// (nil on fault-free runs).
	Crashed []bool
}

// Spec describes one simulation run.
type Spec struct {
	Net *dlt.Network
	// PlanHat is the planned local allocation α̂ (fraction of received load
	// retained). Required.
	PlanHat []float64
	// ActualHat optionally overrides the retained fraction per processor
	// (the Phase III deviation α̃). nil means on-plan. The final processor
	// must still compute everything it receives; a deviating P_m simply
	// has nowhere to push load, so ActualHat[m] is forced to 1.
	ActualHat []float64
	// ActualW optionally overrides the per-unit compute time (w̃ ≥ t). nil
	// means processors run at Net.W.
	ActualW []float64
	// Load is the total workload; 0 means 1 (unit load).
	Load float64
	// RecordTrace enables the event trace (costs allocations).
	RecordTrace bool
	// Faults optionally injects timed crashes and link delays. nil means a
	// fault-free run.
	Faults *FaultSpec
	// Hooks receives observability callbacks: the run is bracketed as an
	// obs.PhaseDES root phase, arrivals fire OnMessage(i-1, i), and compute
	// intervals are bracketed as obs.PhaseCompute. nil means obs.Nop.
	// Note the spans carry simulated time only in their names' ordering —
	// wall-clock span durations of a DES run are meaningless and tiny.
	Hooks obs.Hooks
}

type event struct {
	time float64
	seq  int
	kind EventKind
	proc int
	load float64
}

// eventHeap is a hand-rolled binary min-heap ordered by (time, seq). The
// standard container/heap would box every event into an interface twice per
// scheduling (Push and Pop both traffic in `any`), which made the event
// queue the simulator's dominant allocation source; a concrete heap moves
// events by value only.
type eventHeap []event

// before is the heap order: earliest time first, schedule order (seq) as the
// deterministic tie-break.
func (h eventHeap) before(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() (event, bool) {
	q := *h
	if len(q) == 0 {
		return event{}, false
	}
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.before(l, min) {
			min = l
		}
		if r < n && q.before(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top, true
}

// heapPool recycles event-queue backing arrays across runs: sweep
// experiments simulate thousands of specs back to back, and regrowing the
// queue each run was measurable churn.
var heapPool = sync.Pool{New: func() any { return new(eventHeap) }}

// Errors returned by Run.
var (
	ErrSpecNet  = errors.New("des: spec needs a valid network")
	ErrSpecPlan = errors.New("des: PlanHat length must match the network")
	ErrSpecHat  = errors.New("des: fractions must lie in [0,1]")
)

// Run executes the simulation described by spec.
func Run(spec Spec) (*Result, error) {
	n := spec.Net
	if n == nil {
		return nil, ErrSpecNet
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpecNet, err)
	}
	size := n.Size()
	if len(spec.PlanHat) != size {
		return nil, ErrSpecPlan
	}
	hat := append([]float64(nil), spec.PlanHat...)
	if spec.ActualHat != nil {
		if len(spec.ActualHat) != size {
			return nil, ErrSpecPlan
		}
		copy(hat, spec.ActualHat)
	}
	hat[size-1] = 1 // P_m has no successor; it computes whatever arrives
	for i, h := range hat {
		if math.IsNaN(h) || h < 0 || h > 1 {
			return nil, fmt.Errorf("%w: hat[%d]=%v", ErrSpecHat, i, h)
		}
	}
	w := n.W
	if spec.ActualW != nil {
		if len(spec.ActualW) != size {
			return nil, ErrSpecPlan
		}
		for i, wi := range spec.ActualW {
			if !(wi > 0) {
				return nil, fmt.Errorf("%w: ActualW[%d]=%v", ErrSpecHat, i, wi)
			}
		}
		w = spec.ActualW
	}
	load := spec.Load
	if load == 0 {
		load = 1
	}
	if load < 0 {
		return nil, fmt.Errorf("%w: Load=%v", ErrSpecHat, load)
	}
	if err := spec.Faults.validate(size); err != nil {
		return nil, err
	}

	res := &Result{
		Arrive:   make([]float64, size),
		Finish:   make([]float64, size),
		Retained: make([]float64, size),
		Received: make([]float64, size),
		Compute:  make([]Interval, size),
		Send:     make([]Interval, size),
	}
	q := heapPool.Get().(*eventHeap)
	defer func() {
		*q = (*q)[:0]
		heapPool.Put(q)
	}()
	seq := 0
	schedule := func(t float64, kind EventKind, proc int, amount float64) {
		q.push(event{time: t, seq: seq, kind: kind, proc: proc, load: amount})
		seq++
	}
	record := func(t float64, kind EventKind, proc int, amount float64) {
		if spec.RecordTrace {
			res.Trace = append(res.Trace, Event{Time: t, Kind: kind, Proc: proc, Load: amount})
		}
	}

	hooks := obs.Or(spec.Hooks)
	hooks.OnPhaseStart(obs.Root, obs.PhaseDES)
	defer hooks.OnPhaseEnd(obs.Root, obs.PhaseDES)

	// P0 "arrives" with the full load at t=0.
	schedule(0, EvArrive, 0, load)

	for {
		e, ok := q.pop()
		if !ok {
			break
		}
		switch e.kind {
		case EvArrive:
			i := e.proc
			crash := spec.Faults.crashTime(i)
			if crash <= e.time {
				// The processor was already down when its assignment landed:
				// everything it would have computed or forwarded is gone.
				markCrashed(res, i)
				res.Lost += e.load
				record(e.time, EvArrive, i, e.load)
				continue
			}
			res.Received[i] = e.load
			res.Arrive[i] = e.time
			record(e.time, EvArrive, i, e.load)
			if i > 0 {
				hooks.OnMessage(i-1, i, obs.PhaseDES)
			}
			retained := float64(e.load * hat[i])
			forwarded := e.load - retained
			res.Retained[i] = retained
			if retained > 0 {
				record(e.time, EvComputeStart, i, retained)
				hooks.OnPhaseStart(i, obs.PhaseCompute)
				done := e.time + float64(retained*w[i])
				if crash < done {
					// Mid-compute crash: the partial result up to the crash
					// instant is retained, the remainder is lost.
					computed := (crash - e.time) / w[i]
					res.Retained[i] = computed
					res.Lost += retained - computed
					markCrashed(res, i)
					retained, done = computed, crash
				}
				res.Compute[i] = Interval{Start: e.time, End: done}
				schedule(done, EvComputeDone, i, retained)
			}
			if forwarded > 0 && i < size-1 {
				record(e.time, EvSendStart, i, forwarded)
				sendDone := e.time + float64(forwarded*n.Z[i+1])
				if crash < sendDone {
					// The front-end dies mid-transfer; the successor never
					// receives the (store-and-forward) assignment.
					markCrashed(res, i)
					res.Lost += forwarded
					res.Send[i+1] = Interval{Start: e.time, End: crash}
					continue
				}
				arrive := sendDone + spec.Faults.linkDelay(i+1)
				res.Send[i+1] = Interval{Start: e.time, End: arrive}
				schedule(arrive, EvSendDone, i, forwarded)
				schedule(arrive, EvArrive, i+1, forwarded)
			}
		case EvComputeDone:
			res.Finish[e.proc] = e.time
			record(e.time, EvComputeDone, e.proc, e.load)
			hooks.OnPhaseEnd(e.proc, obs.PhaseCompute)
			if e.time > res.Makespan {
				res.Makespan = e.time
			}
		case EvSendDone:
			record(e.time, EvSendDone, e.proc, e.load)
		}
	}
	return res, nil
}

// RunPlan is the common case: simulate the optimal plan of a network on-plan
// at full speed for a unit load.
func RunPlan(n *dlt.Network) (*Result, error) {
	sol, err := dlt.SolveBoundary(n)
	if err != nil {
		return nil, err
	}
	return Run(Spec{Net: n, PlanHat: sol.AlphaHat})
}
