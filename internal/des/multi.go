package des

import (
	"container/heap"
	"fmt"
	"math"

	"dlsmech/internal/dlt"
)

// Multi-installment (multiround) scheduling, after Yang, van der Raadt &
// Casanova (reference [21] of the paper). Single-round DLT on a chain makes
// every processor wait for its *entire* assignment before computing, and —
// more importantly — makes P_{i+1} wait until P_i has received everything
// destined downstream. Splitting the load into R installments lets the
// chain pipeline: P_i forwards installment r while still receiving
// installment r+1, which cuts the store-and-forward ramp-up roughly by a
// factor of R. With per-transfer startup costs the benefit reverses past an
// optimal R — the classic multiround trade-off, measured by experiment A7.

// Round is one installment: its share of the total load and the local
// fractions used to split it down the chain.
type Round struct {
	Load float64
	Hat  []float64
}

// MultiSpec describes a multi-installment run.
type MultiSpec struct {
	Net    *dlt.Network
	Rounds []Round
	// StartupZ is an optional per-transfer communication startup cost
	// (the affine overhead that penalizes many small installments).
	StartupZ float64
}

// MultiResult is the outcome of a multi-installment simulation.
type MultiResult struct {
	Makespan float64
	// ComputeIntervals[i] lists processor i's per-chunk compute intervals
	// in execution order; RecvIntervals[i] the transfer intervals on the
	// link INTO processor i (empty for the root). The multiround Gantt
	// renderer draws these.
	ComputeIntervals [][]Interval
	RecvIntervals    [][]Interval
	// Start[i] is the time processor i's first chunk arrives (0 for the
	// root; +Inf for a processor that never receives load). Pipelining is
	// visible here: more installments pull the tail's start time in.
	Start []float64
	// Finish[i] is the time processor i completes its last chunk.
	Finish []float64
	// Retained[i] is the total load processor i computed.
	Retained []float64
	// Idle[i] is the time processor i spent idle between its first
	// arrival and its last compute completion (pipelining quality).
	Idle []float64
	// RoundFinish[r] is the time the last chunk of installment r finishes
	// computing anywhere on the chain — the per-load completion time when
	// each Round models one load of a pipelined backlog. Deltas between
	// consecutive entries expose the steady-state period.
	RoundFinish []float64
}

type multiEvent struct {
	time  float64
	seq   int
	proc  int
	round int
	load  float64
}

type multiHeap []multiEvent

func (h multiHeap) Len() int { return len(h) }
func (h multiHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h multiHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *multiHeap) Push(x any)   { *h = append(*h, x.(multiEvent)) }
func (h *multiHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// RunMulti simulates the installments through the one-port, front-end,
// store-and-forward chain. Each processor forwards a chunk as soon as the
// chunk has fully arrived and its outgoing port is free; it computes chunks
// in arrival order on a single core.
func RunMulti(spec MultiSpec) (*MultiResult, error) {
	n := spec.Net
	if n == nil {
		return nil, ErrSpecNet
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpecNet, err)
	}
	if len(spec.Rounds) == 0 {
		return nil, fmt.Errorf("%w: no rounds", ErrSpecPlan)
	}
	if spec.StartupZ < 0 || math.IsNaN(spec.StartupZ) {
		return nil, fmt.Errorf("%w: StartupZ=%v", ErrSpecHat, spec.StartupZ)
	}
	size := n.Size()
	for r, rd := range spec.Rounds {
		if !(rd.Load > 0) || math.IsInf(rd.Load, 0) {
			return nil, fmt.Errorf("%w: round %d load %v", ErrSpecHat, r, rd.Load)
		}
		if len(rd.Hat) != size {
			return nil, fmt.Errorf("%w: round %d hat length %d", ErrSpecPlan, r, len(rd.Hat))
		}
		for i, h := range rd.Hat {
			if math.IsNaN(h) || h < 0 || h > 1 {
				return nil, fmt.Errorf("%w: round %d hat[%d]=%v", ErrSpecHat, r, i, h)
			}
		}
	}

	res := &MultiResult{
		ComputeIntervals: make([][]Interval, size),
		RecvIntervals:    make([][]Interval, size),
		Start:            make([]float64, size),
		Finish:           make([]float64, size),
		Retained:         make([]float64, size),
		Idle:             make([]float64, size),
		RoundFinish:      make([]float64, len(spec.Rounds)),
	}
	cpuFree := make([]float64, size)
	outFree := make([]float64, size)
	firstArrive := make([]float64, size)
	for i := range firstArrive {
		firstArrive[i] = math.Inf(1)
	}
	busy := make([]float64, size) // accumulated compute time

	var q multiHeap
	seq := 0
	push := func(t float64, proc, round int, load float64) {
		heap.Push(&q, multiEvent{time: t, seq: seq, proc: proc, round: round, load: load})
		seq++
	}
	// All installments are present at the root at t = 0, in round order.
	for r, rd := range spec.Rounds {
		push(0, 0, r, rd.Load)
	}

	for q.Len() > 0 {
		e := heap.Pop(&q).(multiEvent)
		i := e.proc
		if e.time < firstArrive[i] {
			firstArrive[i] = e.time
		}
		hat := spec.Rounds[e.round].Hat[i]
		if i == size-1 {
			hat = 1 // the terminal processor computes everything it receives
		}
		retained := float64(e.load * hat)
		forwarded := e.load - retained
		if retained > 0 {
			start := math.Max(e.time, cpuFree[i])
			done := start + float64(retained*n.W[i])
			cpuFree[i] = done
			res.Retained[i] += retained
			busy[i] += float64(retained * n.W[i])
			res.ComputeIntervals[i] = append(res.ComputeIntervals[i], Interval{Start: start, End: done})
			if done > res.Finish[i] {
				res.Finish[i] = done
			}
			if done > res.Makespan {
				res.Makespan = done
			}
			if done > res.RoundFinish[e.round] {
				res.RoundFinish[e.round] = done
			}
		}
		if forwarded > 1e-15 && i < size-1 {
			sendStart := math.Max(e.time, outFree[i])
			arrive := sendStart + spec.StartupZ + float64(forwarded*n.Z[i+1])
			outFree[i] = arrive
			res.RecvIntervals[i+1] = append(res.RecvIntervals[i+1], Interval{Start: sendStart, End: arrive})
			push(arrive, i+1, e.round, forwarded)
		}
	}
	copy(res.Start, firstArrive)
	for i := range res.Idle {
		if math.IsInf(firstArrive[i], 1) || res.Retained[i] == 0 {
			continue
		}
		res.Idle[i] = (res.Finish[i] - firstArrive[i]) - busy[i]
		if res.Idle[i] < 0 {
			res.Idle[i] = 0
		}
	}
	return res, nil
}

// FluidInstallments builds R equal rounds whose split is the fluid-limit
// (R → ∞) allocation: load proportional to processing rate 1/w_i. Under a
// single round these fractions are poor (the tail starts far too late); as
// R grows the pipeline fills and the makespan approaches the perfect-
// parallelism bound 1/Σ(1/w_i) whenever the links can sustain the flow.
// This is the plan multiround scheduling actually benefits from — keeping
// the single-round optimal fractions leaves the root the bottleneck and
// gains nothing (experiment A7 shows both).
func FluidInstallments(n *dlt.Network, load float64, rounds int) ([]Round, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("%w: rounds=%d", ErrSpecHat, rounds)
	}
	hat := dlt.HatFromAlpha(dlt.ProportionalAlloc(n))
	out := make([]Round, rounds)
	for r := range out {
		out[r] = Round{Load: load / float64(rounds), Hat: hat}
	}
	return out, nil
}

// EqualInstallments builds R identical rounds of load/R using the
// single-round optimal local fractions of the network.
func EqualInstallments(n *dlt.Network, load float64, rounds int) ([]Round, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("%w: rounds=%d", ErrSpecHat, rounds)
	}
	sol, err := dlt.SolveBoundary(n)
	if err != nil {
		return nil, err
	}
	out := make([]Round, rounds)
	for r := range out {
		out[r] = Round{Load: load / float64(rounds), Hat: sol.AlphaHat}
	}
	return out, nil
}

// Steady describes the periodic regime a homogeneous backlog settles into
// when full loads are pipelined down the chain: the root starts distributing
// load k+1 while the tail is still computing load k, so after a ramp-up the
// inter-finish interval converges to a constant Period ≤ the single-load
// makespan.
type Steady struct {
	// Hat are the per-load local fractions (the single-round optimum).
	Hat []float64
	// Finish[k] is the completion time of load k.
	Finish []float64
	// Makespan is the single-load makespan (Finish[0]).
	Makespan float64
	// Period is the asymptotic inter-finish interval, read off the last two
	// loads (equal to Makespan when only one load is simulated).
	Period float64
}

// SteadyStateSchedule simulates a backlog of `loads` identical loads of the
// given size, each scheduled with the network's single-round optimal
// fractions, through the pipelined chain. It is the timing oracle for the
// mechanism's pipelined rounds (protocol.Pipeline): per-load makespans and
// the steady-state period must match what the event simulation produces at
// equal parameters.
func SteadyStateSchedule(n *dlt.Network, load float64, loads int, startupZ float64) (*Steady, error) {
	if loads < 1 {
		return nil, fmt.Errorf("%w: loads=%d", ErrSpecHat, loads)
	}
	sol, err := dlt.SolveBoundary(n)
	if err != nil {
		return nil, err
	}
	rounds := make([]Round, loads)
	for r := range rounds {
		rounds[r] = Round{Load: load, Hat: sol.AlphaHat}
	}
	res, err := RunMulti(MultiSpec{Net: n, Rounds: rounds, StartupZ: startupZ})
	if err != nil {
		return nil, err
	}
	st := &Steady{
		Hat:      sol.AlphaHat,
		Finish:   res.RoundFinish,
		Makespan: res.RoundFinish[0],
		Period:   res.RoundFinish[0],
	}
	if loads >= 2 {
		st.Period = res.RoundFinish[loads-1] - res.RoundFinish[loads-2]
	}
	return st, nil
}
