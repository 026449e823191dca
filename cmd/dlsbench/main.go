// dlsbench runs the repository's performance trajectory: micro-benchmarks
// over the mechanism hot paths (boundary solver, mechanism evaluation,
// signed protocol round, DES replay) across chain sizes, plus the
// sequential-vs-parallel experiment engine comparison, emitting one
// machine-readable BENCH_*.json suitable for diffing across commits.
//
// Unlike `go test -bench`, this harness owns its measurement loop, so it
// can pair each allocation-free Into variant with its allocating
// counterpart and report the speedup, and it can time full RunAll /
// RunAllParallel suite passes that a testing.B iteration budget would
// mangle.
//
// Usage:
//
//	dlsbench [-out BENCH_results.json] [-benchtime 100ms] [-seed 12345]
//	         [-workers 0] [-runall] [-force] [-trace t.json] [-metrics m.txt]
//	dlsbench -compare [-hard-ops op1,op2] old.json new.json
//
// Writing over the checked-in BENCH_baseline.json requires -force; the
// default output name keeps accidental runs away from the baseline. With
// -trace/-metrics the measured protocol rounds and experiment passes run
// with observability hooks attached — useful for profiling, but note the
// instrumented numbers then include hook overhead.
//
// -compare diffs two reports and exits nonzero when any (op, m) pair present
// in both regressed by more than 15% in ns/op. With -hard-ops only the named
// ops are fatal; every other shared op is reported informationally — CI uses
// this to gate hard on protocol_round while merely logging the sub-µs micro
// ops, whose ns/op jitter on shared runners exceeds any real signal. Hard
// ops must be present in both reports: a missing key fails the comparison
// with a diff naming the key and the report that lacks it, so a renamed or
// silently-dropped benchmark cannot hollow out the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"dlsmech/internal/agent"
	"dlsmech/internal/cli"
	"dlsmech/internal/core"
	"dlsmech/internal/des"
	"dlsmech/internal/device"
	"dlsmech/internal/dlt"
	"dlsmech/internal/experiments"
	"dlsmech/internal/ledger"
	"dlsmech/internal/obs"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
	"dlsmech/internal/workload"
	"dlsmech/internal/xrand"
)

// sizes is the chain-size axis shared by the solver/mechanism/DES
// micro-benchmarks.
var sizes = []int{8, 64, 512, 4096}

// protocolSizes is the chain-size axis for the goroutine-per-node protocol
// ops. The Phase II w̄ identity is scale-free since the α̂-ratio billing
// rework, so arithmetic no longer caps m; what remains is that the chain
// engine spawns one goroutine per processor, and past a few hundred of them
// a saturated CPU makes the default failure detector trip spuriously.
var protocolSizes = []int{8, 64, 128}

// microResult is one (op, m) measurement. SpeedupVsSequential compares the
// allocation-free hot path against its allocating sequential-era
// counterpart when one exists (solve_boundary vs SolveBoundary,
// evaluate vs Evaluate); it is 0 for ops with no such pairing.
type microResult struct {
	Op                  string  `json:"op"`
	M                   int     `json:"m"`
	Procs               int     `json:"procs,omitempty"`
	NsPerOp             float64 `json:"ns_per_op"`
	BPerOp              float64 `json:"b_per_op"`
	AllocsPerOp         float64 `json:"allocs_per_op"`
	SpeedupVsSequential float64 `json:"speedup_vs_sequential,omitempty"`
}

// runAllResult times one full experiment-suite pass per engine mode.
type runAllResult struct {
	SeqSec  float64 `json:"seq_sec"`
	ParSec  float64 `json:"par_sec"`
	Workers int     `json:"workers"`
	Speedup float64 `json:"speedup"`
}

type benchReport struct {
	Generated string             `json:"generated"`
	GoVersion string             `json:"go_version"`
	MaxProcs  int                `json:"gomaxprocs"`
	Seed      uint64             `json:"seed"`
	Benchtime string             `json:"benchtime"`
	Micro     []microResult      `json:"micro"`
	RunAll    *runAllResult      `json:"run_all,omitempty"`
	Server    *serverBenchResult `json:"server,omitempty"`
}

// measure runs fn in a timed loop for roughly benchtime after one warmup
// call and returns per-op wall time and heap-allocation figures derived
// from runtime.MemStats deltas around the loop.
// minIters floors the timed loop: an op longer than benchtime would
// otherwise be measured from a single call, and for the heavyweight ops
// (a cold protocol round takes tens of ms at m ≥ 64) GC timing alone
// swings a one-shot measurement past the compare gate's 15% threshold.
// Three calls amortize one mid-round GC cycle to noise.
const minIters = 3

func measure(benchtime time.Duration, fn func()) (nsPerOp, bPerOp, allocsPerOp float64) {
	fn() // warmup: fault in code paths and grow reusable scratch to capacity
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for {
		fn()
		iters++
		if iters >= minIters && time.Since(start) >= benchtime {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n,
		float64(after.Mallocs-before.Mallocs) / n
}

func chain(seed uint64, m int) *dlt.Network {
	return workload.Chain(xrand.New(seed), workload.DefaultChainSpec(m))
}

func microBenchmarks(seed uint64, benchtime time.Duration, hooks obs.Hooks, procs []int) []microResult {
	var out []microResult
	addP := func(op string, m, p int, ns, b, allocs, speedup float64) {
		out = append(out, microResult{Op: op, M: m, Procs: p, NsPerOp: ns, BPerOp: b, AllocsPerOp: allocs, SpeedupVsSequential: speedup})
		fmt.Fprintf(os.Stderr, "%-22s m=%-6d", op, m)
		if p > 0 {
			fmt.Fprintf(os.Stderr, " p=%-2d", p)
		} else {
			fmt.Fprintf(os.Stderr, "     ")
		}
		fmt.Fprintf(os.Stderr, " %14.1f ns/op %12.1f B/op %8.2f allocs/op", ns, b, allocs)
		if speedup > 0 {
			fmt.Fprintf(os.Stderr, "  %5.2fx vs baseline pairing", speedup)
		}
		fmt.Fprintln(os.Stderr)
	}
	add := func(op string, m int, ns, b, allocs, speedup float64) {
		addP(op, m, 0, ns, b, allocs, speedup)
	}

	for _, m := range sizes {
		n := chain(seed, m)

		// Boundary solver: reused-Allocation hot path vs fresh-allocation call.
		var a dlt.Allocation
		ns, b, allocs := measure(benchtime, func() { dlt.SolveBoundaryInto(n, &a) })
		seqNs, _, _ := measure(benchtime, func() {
			if _, err := dlt.SolveBoundary(n); err != nil {
				fatal(err)
			}
		})
		add("solve_boundary", m, ns, b, allocs, seqNs/ns)

		// Mechanism evaluation: EvaluateInto over a warm Outcome vs Evaluate.
		cfg := core.DefaultConfig()
		rep := core.TruthfulReport(n)
		var outc core.Outcome
		ns, b, allocs = measure(benchtime, func() {
			if err := core.EvaluateInto(&outc, n, rep, cfg); err != nil {
				fatal(err)
			}
		})
		seqNs, _, _ = measure(benchtime, func() {
			if _, err := core.Evaluate(n, rep, cfg); err != nil {
				fatal(err)
			}
		})
		add("evaluate", m, ns, b, allocs, seqNs/ns)

		// DES replay of the optimal plan (event-queue step machinery).
		ns, b, allocs = measure(benchtime, func() {
			if _, err := des.RunPlan(n); err != nil {
				fatal(err)
			}
		})
		add("des_run", m, ns, b, allocs, 0)
	}

	runRound := func(m int, do func() (*protocol.Result, error)) {
		res, err := do()
		if err != nil {
			fatal(err)
		}
		if !res.Completed {
			fatal(fmt.Errorf("m=%d: truthful protocol round terminated", m))
		}
	}

	// One full signed four-phase protocol round, truthful profile. The
	// headline op is the session fast path: keys, PKI memos, channels, and
	// scratch arenas persist across rounds, so a steady-state round is memo
	// lookups plus arithmetic. The cold counterpart (protocol.Run, a fresh
	// session per round — what the pre-session harness measured) rides along
	// both as the speedup denominator and as its own op. The procs axis
	// exposes how much of the round pipelines across cores.
	for _, m := range protocolSizes {
		n := chain(seed, m)
		prof := agent.AllTruthful(n.Size())
		cfg := core.DefaultConfig()
		rec := protocol.RecoveryConfig{Timeout: time.Duration(max(150, m)) * time.Millisecond}
		p := protocol.Params{Net: n, Profile: prof, Cfg: cfg, Seed: seed, Recovery: rec, Hooks: hooks}
		sess := protocol.NewSession(n.Size(), seed)
		for _, pr := range procs {
			prev := runtime.GOMAXPROCS(pr)
			ns, b, allocs := measure(benchtime, func() { runRound(m, func() (*protocol.Result, error) { return sess.Run(p) }) })
			coldNs, coldB, coldAllocs := measure(benchtime, func() { runRound(m, func() (*protocol.Result, error) { return protocol.Run(p) }) })
			runtime.GOMAXPROCS(prev)
			addP("protocol_round", m, pr, ns, b, allocs, coldNs/ns)
			addP("protocol_round_cold", m, pr, coldNs, coldB, coldAllocs, 0)
		}
	}

	for _, r := range pipelineBenchmarks(seed, benchtime, hooks) {
		add(r.Op, r.M, r.NsPerOp, r.BPerOp, r.AllocsPerOp, r.SpeedupVsSequential)
	}
	for _, r := range wireBenchmarks(seed, benchtime) {
		add(r.Op, r.M, r.NsPerOp, r.BPerOp, r.AllocsPerOp, 0)
	}
	for _, r := range ledgerBenchmarks(seed, benchtime) {
		add(r.Op, r.M, r.NsPerOp, r.BPerOp, r.AllocsPerOp, 0)
	}
	return out
}

// pipelineSizes is the chain-size axis for the pipelined stream ops.
var pipelineSizes = []int{8, 64}

// pipelineBacklog is the loads-per-iteration of the stream ops; the reported
// figures are per load. Long enough that the steady-state period dominates
// the pipeline's fill and drain edges.
const pipelineBacklog = 16

// pipelineMinSamples is the per-leg iteration floor of the paired pipeline
// measurement (see pair below).
const pipelineMinSamples = 25

// pipelineBenchmarks prices a durably-settled stream of loads on a warm
// session: every load's evidence round is opened before its exchange and
// fsynced closed after its settle — the daemon's fsync-before-ack contract.
// Depth 1 is the closed-loop sequential shape (exchange, settle, fsync,
// repeat: what a client issuing one Round at a time pays per load); depth 4
// overlaps the settle and close of load k with the exchange of k+1 and
// group-commits the durability barrier, one fsync covering up to depth
// settles — which is where a stream beats one-shot rounds even on a single
// core: the barrier's fixed journal cost amortizes across the pipeline
// window, and a closed loop that must ack before the next request cannot
// batch it. The cold variants provision the session inside the measured
// loop. The depth-4 speedup pairing is the depth-1 op at equal m and
// temperature.
func pipelineBenchmarks(seed uint64, benchtime time.Duration, hooks obs.Hooks) []microResult {
	dir, err := os.MkdirTemp("", "dlsbench-pipeline-*")
	must(err)
	defer os.RemoveAll(dir)
	be, err := ledger.OpenFile(dir, 0)
	must(err)
	st, err := ledger.Open(be, nil)
	must(err)
	defer st.Close()

	var out []microResult
	for _, m := range pipelineSizes {
		n := chain(seed, m)
		prof := agent.AllTruthful(n.Size())
		cfg := core.DefaultConfig()
		rec := protocol.RecoveryConfig{Timeout: time.Duration(max(150, m)) * time.Millisecond}
		p := protocol.Params{Net: n, Profile: prof, Cfg: cfg, Seed: seed, Recovery: rec, Hooks: hooks}

		sl, err := st.OpenSession(wire.Hello{Tenant: fmt.Sprintf("bench-%d", m), Size: n.Size(), Seed: seed})
		must(err)
		var seq uint64

		// stream pushes one backlog through a Pipeline at the given depth.
		// Depth 1 settles and fsyncs inline between submissions; deeper
		// pipelines hand settled loads to a consumer goroutine in submit
		// order and group-commit the durability barrier — one fsync covers
		// up to depth deferred settles before their loads count as served —
		// exactly like the daemon's stream consumer.
		type inflight struct {
			t  *protocol.Ticket
			rl *ledger.RoundLog
			sq uint64
		}
		settle := func(f inflight) {
			res := f.t.Wait()
			if !res.Completed {
				fatal(fmt.Errorf("m=%d: pipelined load %d terminated", m, f.sq))
			}
			must(f.rl.Close(server.ResultToWire(f.sq, res)))
		}
		settleDeferred := func(f inflight) {
			res := f.t.Wait()
			if !res.Completed {
				fatal(fmt.Errorf("m=%d: pipelined load %d terminated", m, f.sq))
			}
			must(f.rl.CloseDeferred(server.ResultToWire(f.sq, res)))
		}
		stream := func(sess *protocol.Session, depth int) {
			pipe, err := protocol.NewPipeline(sess, depth)
			must(err)
			var queue chan inflight
			done := make(chan struct{})
			if depth > 1 {
				queue = make(chan inflight, depth)
				go func() {
					defer close(done)
					pending := 0
					for f := range queue {
						settleDeferred(f)
						if pending++; pending >= depth {
							must(sl.Sync())
							pending = 0
						}
					}
					if pending > 0 {
						must(sl.Sync())
					}
				}()
			}
			for k := 0; k < pipelineBacklog; k++ {
				seq++
				rq := wire.Round{Seq: seq, Seed: seed + seq}
				rl, err := sl.OpenRound(rq)
				must(err)
				pk := p
				pk.Seed = rq.Seed
				pk.Evidence = rl
				t, err := pipe.Submit(pk)
				must(err)
				f := inflight{t: t, rl: rl, sq: seq}
				if depth > 1 {
					queue <- f
				} else {
					settle(f)
				}
			}
			if depth > 1 {
				close(queue)
				<-done
			}
			pipe.Close()
		}

		// Paired timing: the depth-1 and depth-4 batches alternate inside
		// one loop, so slow filesystem drift — journal checkpointing and
		// writeback debt left by earlier iterations — biases neither depth.
		// Measuring the two ops in sequence showed exactly that bias: the
		// later op inherited the earlier op's writeback debt and the
		// speedup flapped run to run.
		B := float64(pipelineBacklog)
		type acc struct {
			samples       []float64 // per-iteration wall ns
			bytes, allocs float64
			iters         int
		}
		pair := func(mk func(depth int) func()) (d1, d4 acc) {
			f1, f4 := mk(1), mk(4)
			f1() // warmup: fault in both shapes
			f4()
			runtime.GC()
			var before, after runtime.MemStats
			start := time.Now()
			for it := 0; ; it++ {
				for _, leg := range []struct {
					fn func()
					a  *acc
				}{{f1, &d1}, {f4, &d4}} {
					runtime.ReadMemStats(&before)
					t0 := time.Now()
					leg.fn()
					el := time.Since(t0)
					runtime.ReadMemStats(&after)
					leg.a.samples = append(leg.a.samples, float64(el.Nanoseconds()))
					leg.a.bytes += float64(after.TotalAlloc - before.TotalAlloc)
					leg.a.allocs += float64(after.Mallocs - before.Mallocs)
					leg.a.iters++
				}
				// The effect under measurement is a few percent, so the
				// median needs real support: keep sampling past the time
				// budget until both legs have pipelineMinSamples
				// iterations, under a hard cap so huge m still terminates.
				elapsed := time.Since(start)
				enough := it+1 >= minIters && elapsed >= 2*benchtime
				if enough && (it+1 >= pipelineMinSamples || elapsed >= 8*benchtime) {
					break
				}
			}
			return
		}
		// emit reports the median iteration, not the mean: a background
		// writeback storm landing in one iteration would otherwise swing
		// the figure by tens of percent.
		emit := func(op string, a acc, base float64) float64 {
			sort.Float64s(a.samples)
			med := a.samples[len(a.samples)/2]
			if len(a.samples)%2 == 0 {
				med = (med + a.samples[len(a.samples)/2-1]) / 2
			}
			n := float64(a.iters) * B
			ns := med / B
			speedup := 0.0
			if base > 0 {
				speedup = base / ns
			}
			out = append(out, microResult{
				Op: op, M: m,
				NsPerOp: ns, BPerOp: a.bytes / n, AllocsPerOp: a.allocs / n,
				SpeedupVsSequential: speedup,
			})
			return ns
		}

		warm1, warm4 := pair(func(depth int) func() {
			sess := protocol.NewSession(n.Size(), seed)
			return func() { stream(sess, depth) }
		})
		warmD1 := emit("pipeline_round_d1", warm1, 0)
		emit("pipeline_round_d4", warm4, warmD1)

		cold1, cold4 := pair(func(depth int) func() {
			return func() { stream(protocol.NewSession(n.Size(), seed), depth) }
		})
		coldD1 := emit("pipeline_round_cold_d1", cold1, 0)
		emit("pipeline_round_cold_d4", cold4, coldD1)
	}
	return out
}

// wireBenchmarks prices the binary message codec: appending one frame of
// every message type into a reused buffer (encode) and decoding the
// concatenated frames back (decode). Frame sizes do not scale with m, so the
// ops report m=0.
func wireBenchmarks(seed uint64, benchtime time.Duration) []microResult {
	s0 := sign.NewSigner(0, seed)
	s1 := sign.NewSigner(1, seed)
	slot := func(s *sign.Signer, k wire.SlotKind, i int, v float64) sign.Signed {
		return s.Sign(wire.EncodeSlot(k, i, v))
	}
	iss, err := device.NewIssuer(1.0/64, xrand.New(seed))
	if err != nil {
		fatal(err)
	}
	att, err := iss.Mint(0.5)
	if err != nil {
		fatal(err)
	}
	meter := device.NewMeter(s0, 1)
	reading, err := meter.Record(1.2, 0.5)
	if err != nil {
		fatal(err)
	}
	g := wire.Alloc{
		To:        1,
		PrevLoad:  slot(s0, wire.SlotLoad, 0, 1),
		Load:      slot(s0, wire.SlotLoad, 1, 0.6),
		PrevEquiv: slot(s0, wire.SlotEquivBid, 0, 1.9),
		PrevBid:   slot(s0, wire.SlotBid, 0, 1.2),
		EchoEquiv: slot(s1, wire.SlotEquivBid, 1, 2.5),
	}
	bid := wire.Bid{From: 1, Signed: []sign.Signed{slot(s1, wire.SlotEquivBid, 1, 2.5)}}
	load := wire.Load{Amount: 0.6, Att: att}
	bill := wire.Bill{
		From: 1, Compensation: 0.6, Recompense: 0.1, Solution: 0.25,
		Proof: wire.Proof{
			G: g, SuccBid: slot(s0, wire.SlotEquivBid, 2, 1.7),
			OwnBid: slot(s1, wire.SlotBid, 1, 1.2),
			Meter:  reading, Att: att, HasSucc: true,
		},
	}
	grievance := wire.Grievance{Reporter: 1, G: g, Att: att, Meter: reading}

	encodeAll := func(dst []byte) []byte {
		dst = wire.AppendBid(dst, bid)
		dst = wire.AppendAlloc(dst, g)
		dst = wire.AppendLoad(dst, load)
		dst = wire.AppendBill(dst, bill)
		return wire.AppendGrievance(dst, grievance)
	}
	buf := encodeAll(nil)
	frames := append([]byte(nil), buf...)

	var out []microResult
	ns, b, allocs := measure(benchtime, func() { buf = encodeAll(buf[:0]) })
	out = append(out, microResult{Op: "wire_encode", NsPerOp: ns, BPerOp: b, AllocsPerOp: allocs})
	decoders := []func([]byte) int{
		func(d []byte) int { _, n, err := wire.DecodeBid(d); must(err); return n },
		func(d []byte) int { _, n, err := wire.DecodeAlloc(d); must(err); return n },
		func(d []byte) int { _, n, err := wire.DecodeLoad(d); must(err); return n },
		func(d []byte) int { _, n, err := wire.DecodeBill(d); must(err); return n },
		func(d []byte) int { _, n, err := wire.DecodeGrievance(d); must(err); return n },
	}
	ns, b, allocs = measure(benchtime, func() {
		data := frames
		for _, dec := range decoders {
			data = data[dec(data):]
		}
	})
	out = append(out, microResult{Op: "wire_decode", NsPerOp: ns, BPerOp: b, AllocsPerOp: allocs})
	return out
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

// ledgerBenchmarks prices the evidence ledger's hot path: appending one
// signed bid record (frame encode, SHA-256, conflict wiring) into a warm
// store, for both backends, plus the backend fsync that gates a round
// acknowledgement. Record sizes do not scale with m, so the ops report
// m=0. These are soft keys: fsync latency on shared runners jitters far
// past the compare gate's threshold, so they inform but must not be named
// in -hard-ops.
func ledgerBenchmarks(seed uint64, benchtime time.Duration) []microResult {
	s := sign.NewSigner(1, seed)
	payload := wire.AppendBid(nil, wire.Bid{
		From:   1,
		Signed: []sign.Signed{s.Sign(wire.EncodeSlot(wire.SlotEquivBid, 1, 2.5))},
	})

	// openStore provisions a store with one session and one open round, and
	// returns it with the parent set every appended record hangs off: the
	// round-open hash.
	openStore := func(be ledger.Backend) (*ledger.Store, uint64, []ledger.Hash) {
		st, err := ledger.Open(be, nil)
		must(err)
		sl, err := st.OpenSession(wire.Hello{Tenant: "bench", Size: 2, Seed: seed})
		must(err)
		_, err = sl.OpenRound(wire.Round{Seq: 1, Seed: seed})
		must(err)
		return st, sl.ID(), []ledger.Hash{st.Session(sl.ID()).Gens[0].Open}
	}
	appendOnce := func(st *ledger.Store, session uint64, parents []ledger.Hash, slot *int) {
		*slot++ // fresh conflict key per iteration: Put dedups identical records
		_, _, err := st.Put(ledger.Record{
			Kind: ledger.KindBid, Session: session, Gen: 1, Slot: *slot,
			Parents: parents, Payload: payload,
		})
		must(err)
	}

	var out []microResult

	{
		st, id, parents := openStore(ledger.NewMemBackend())
		slot := 0
		ns, b, allocs := measure(benchtime, func() { appendOnce(st, id, parents, &slot) })
		out = append(out, microResult{Op: "ledger_append_mem", NsPerOp: ns, BPerOp: b, AllocsPerOp: allocs})
	}

	dir, err := os.MkdirTemp("", "dlsbench-ledger-*")
	must(err)
	defer os.RemoveAll(dir)
	be, err := ledger.OpenFile(dir, 0)
	must(err)
	st, id, parents := openStore(be)
	defer st.Close()
	slot := 0
	ns, b, allocs := measure(benchtime, func() { appendOnce(st, id, parents, &slot) })
	out = append(out, microResult{Op: "ledger_append_file", NsPerOp: ns, BPerOp: b, AllocsPerOp: allocs})
	ns, b, allocs = measure(benchtime, func() {
		appendOnce(st, id, parents, &slot)
		must(st.Sync())
	})
	out = append(out, microResult{Op: "ledger_append_fsync", NsPerOp: ns, BPerOp: b, AllocsPerOp: allocs})
	return out
}

// runAllComparison times a full sequential suite pass against the parallel
// engine at the requested worker count and checks the two agree on shape.
func runAllComparison(seed uint64, workers int) (*runAllResult, error) {
	experiments.SetTrialWorkers(1)
	start := time.Now()
	seq, err := experiments.RunAll(seed)
	if err != nil {
		return nil, fmt.Errorf("RunAll: %w", err)
	}
	seqSec := time.Since(start).Seconds()
	fmt.Fprintf(os.Stderr, "run_all sequential: %.2fs (%d reports)\n", seqSec, len(seq))

	experiments.SetTrialWorkers(workers)
	start = time.Now()
	par, err := experiments.RunAllParallel(seed, workers)
	if err != nil {
		return nil, fmt.Errorf("RunAllParallel: %w", err)
	}
	parSec := time.Since(start).Seconds()
	experiments.SetTrialWorkers(0)
	fmt.Fprintf(os.Stderr, "run_all parallel (workers=%d): %.2fs, speedup %.2fx\n",
		workers, parSec, seqSec/parSec)

	if len(par) != len(seq) {
		return nil, fmt.Errorf("parallel engine returned %d reports, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID || seq[i].Passed() != par[i].Passed() {
			return nil, fmt.Errorf("report %d diverged: seq %s passed=%v, par %s passed=%v",
				i, seq[i].ID, seq[i].Passed(), par[i].ID, par[i].Passed())
		}
	}
	return &runAllResult{SeqSec: seqSec, ParSec: parSec, Workers: workers, Speedup: seqSec / parSec}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlsbench:", err)
	os.Exit(1)
}

// parseProcs expands the -procs flag into the GOMAXPROCS axis for the
// parallel-capable ops: a comma-separated list where 0 means NumCPU, with
// duplicates collapsed in order (on a single-core host the default "1,0"
// yields just [1]).
func parseProcs(spec string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		p, err := strconv.Atoi(f)
		if err != nil || p < 0 {
			return nil, fmt.Errorf("-procs: invalid value %q", f)
		}
		if p == 0 {
			p = runtime.NumCPU()
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-procs: empty list")
	}
	return out, nil
}

// regressionThreshold is the ns/op ratio above which a shared op counts as
// regressed: >15% slower than the old report.
const regressionThreshold = 1.15

func loadReport(path string) (*benchReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports diffs every (op, m) pair present in both reports and
// returns an error listing the ops that regressed by more than 15% in
// ns/op. With hardOps non-empty only the named ops can fail on regression;
// the rest are printed informationally.
//
// Hard ops are also presence-checked: a hard op's (op, m) keys must appear
// in BOTH reports, and a hard op absent from both is an error outright.
// Without the check a rename (or a benchmark that stopped running) would
// silently empty the gate — the comparison would "pass" while comparing
// nothing. Non-hard ops present in only one report are still allowed to
// come and go (the matrix evolves), but each skip is printed rather than
// swallowed.
func compareReports(oldRep, newRep *benchReport, hardOps string) error {
	hard := map[string]bool{}
	for _, op := range strings.Split(hardOps, ",") {
		if op = strings.TrimSpace(op); op != "" {
			hard[op] = true
		}
	}
	key := func(r microResult) string {
		if r.Procs > 0 {
			return fmt.Sprintf("%s/m=%d/p=%d", r.Op, r.M, r.Procs)
		}
		return fmt.Sprintf("%s/m=%d", r.Op, r.M)
	}
	old := make(map[string]microResult, len(oldRep.Micro))
	for _, r := range oldRep.Micro {
		old[key(r)] = r
	}
	newKeys := make(map[string]bool, len(newRep.Micro))
	hardSeen := map[string]bool{}

	var failed, missing []string
	shared := 0
	for _, r := range newRep.Micro {
		k := key(r)
		newKeys[k] = true
		prev, ok := old[k]
		if !ok || prev.NsPerOp <= 0 {
			if hard[r.Op] {
				missing = append(missing, fmt.Sprintf("%s (missing from old report)", k))
			} else {
				fmt.Fprintf(os.Stderr, "%-28s only in new report, skipped\n", k)
			}
			continue
		}
		if hard[r.Op] {
			hardSeen[r.Op] = true
		}
		shared++
		ratio := r.NsPerOp / prev.NsPerOp
		fatalOp := len(hard) == 0 || hard[r.Op]
		status := "ok"
		if ratio > regressionThreshold {
			if fatalOp {
				status = "REGRESSED"
				// The failure line carries everything needed to diagnose it
				// from a CI log alone: the full (op, m, procs) key and the
				// side-by-side allocation figures — a ns/op regression with a
				// matching allocs/op jump is a lost pooling/fast-path, while
				// flat allocations point at algorithmic or codegen cost.
				failed = append(failed, fmt.Sprintf(
					"%s: %.1f -> %.1f ns/op (%.2fx, gate %.2fx); allocs/op %.2f -> %.2f, B/op %.1f -> %.1f",
					k, prev.NsPerOp, r.NsPerOp, ratio, regressionThreshold,
					prev.AllocsPerOp, r.AllocsPerOp, prev.BPerOp, r.BPerOp))
			} else {
				status = "regressed (informational)"
			}
		}
		fmt.Fprintf(os.Stderr, "%-28s %12.1f -> %12.1f ns/op  %6.2fx  %8.2f -> %8.2f allocs/op  %s\n",
			k, prev.NsPerOp, r.NsPerOp, ratio, prev.AllocsPerOp, r.AllocsPerOp, status)
	}
	for _, r := range oldRep.Micro {
		if k := key(r); !newKeys[k] {
			if hard[r.Op] {
				missing = append(missing, fmt.Sprintf("%s (missing from new report)", k))
			} else {
				fmt.Fprintf(os.Stderr, "%-28s only in old report, skipped\n", k)
			}
		}
	}
	for op := range hard {
		if !hardSeen[op] {
			// Either every key of the op went missing on one side (already in
			// missing) or the op exists in neither report — a stale -hard-ops
			// list gating nothing.
			hasAny := false
			for _, r := range append(append([]microResult{}, oldRep.Micro...), newRep.Micro...) {
				if r.Op == op {
					hasAny = true
					break
				}
			}
			if !hasAny {
				missing = append(missing, fmt.Sprintf("%s (absent from both reports)", op))
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("hard op keys not comparable:\n  %s", strings.Join(missing, "\n  "))
	}
	if shared == 0 {
		return fmt.Errorf("no shared (op, m) pairs between the two reports")
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d op(s) regressed >%d%% in ns/op:\n  %s",
			len(failed), int((regressionThreshold-1)*100), strings.Join(failed, "\n  "))
	}
	return nil
}

func main() {
	out := flag.String("out", "BENCH_results.json", "output JSON path (- for stdout)")
	benchtime := flag.Duration("benchtime", 100*time.Millisecond, "target wall time per micro-benchmark")
	seed := flag.Uint64("seed", 12345, "workload and suite seed")
	workers := flag.Int("workers", 0, "parallel engine workers (0 = GOMAXPROCS)")
	runall := flag.Bool("runall", true, "include the RunAll vs RunAllParallel suite comparison")
	force := flag.Bool("force", false, "allow overwriting the checked-in BENCH_baseline.json")
	compare := flag.Bool("compare", false, "compare two benchmark reports (old.json new.json) instead of benchmarking")
	hardOps := flag.String("hard-ops", "", "with -compare: comma-separated ops that hard-fail on regression (empty = all)")
	serverBench := flag.Bool("server", true, "include the loopback daemon benchmark (concurrent sessions over TCP)")
	serverConns := flag.Int("server-conns", 256, "loopback benchmark concurrent sessions")
	serverM := flag.Int("server-m", 64, "loopback benchmark strategic processors per session")
	// 30s default: with 256 closed-loop sessions at ~350ms/round, a 5s
	// window measures mostly the first dozen rounds per session — before the
	// per-session verification memos and the daemon's caches reach steady
	// state — and understates throughput by ~20%.
	serverWindow := flag.Duration("server-window", 30*time.Second, "loopback benchmark measurement window")
	procsFlag := flag.String("procs", "1,0", "comma-separated GOMAXPROCS values for the parallel-capable ops (0 = NumCPU); duplicates collapse")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU pprof profile of the micro-benchmark pass")
	memProfile := flag.String("memprofile", "", "write a heap pprof profile after the micro-benchmark pass")
	var obsFlags cli.ObsFlags
	obsFlags.Register("", "", "prom")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two report paths, got %d", flag.NArg()))
		}
		oldRep, err := loadReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		newRep, err := loadReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if err := compareReports(oldRep, newRep, *hardOps); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "no ns/op regressions above threshold")
		return
	}

	// Fail fast, before minutes of benchmarking, if -out targets the
	// committed baseline without -force.
	if err := cli.CheckOverwrite(*out, "BENCH_baseline.json", *force); err != nil {
		fatal(err)
	}

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}

	procs, err := parseProcs(*procsFlag)
	if err != nil {
		fatal(err)
	}

	hooks := obsFlags.Hooks() // nil (zero-overhead) unless -trace/-metrics given
	if hooks != nil {
		experiments.SetHooks(hooks)
		defer experiments.SetHooks(nil)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	report := benchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		Seed:      *seed,
		Benchtime: benchtime.String(),
		Micro:     microBenchmarks(*seed, *benchtime, hooks, procs),
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintln(os.Stderr, "wrote CPU profile", *cpuProfile)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote heap profile", *memProfile)
	}
	if *serverBench {
		// The micro pass leaves the heap large (multi-MB scratch at m=4096 and
		// the streaming sizes), which inflates GC pacing for the first seconds
		// of the server run; collect it so the loopback numbers measure the
		// daemon, not the micro pass's garbage.
		runtime.GC()
		sb, err := serverBenchmark(*seed, *serverConns, *serverM, *serverWindow)
		if err != nil {
			fatal(err)
		}
		report.Server = sb
		// The aggregate served-round cost rides in the micro matrix so the
		// -compare gate can watch it like any other op.
		report.Micro = append(report.Micro, microResult{
			Op: "server_round_loopback", M: sb.M,
			NsPerOp: sb.Seconds * 1e9 / float64(sb.Rounds),
		})
		fmt.Fprintf(os.Stderr,
			"server_round_loopback: %d conns × m=%d: %.1f rounds/sec  p50 %.2fms  p99 %.2fms\n",
			sb.Conns, sb.M, sb.RoundsPerSec, sb.P50Ms, sb.P99Ms)
	}
	if *runall {
		ra, err := runAllComparison(*seed, w)
		if err != nil {
			fatal(err)
		}
		report.RunAll = ra
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := obsFlags.Write(); err != nil {
		fatal(err)
	}
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)
}
