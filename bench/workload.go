package main

import (
	"fmt"
	"math"
	"time"

	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/protocol"
	"dlsmech/internal/wire"
	chains "dlsmech/internal/workload"
	"dlsmech/internal/xrand"
)

// conns is the number of client connections, one tenant each. It equals the
// core count of the 2-core machine the benchmark was calibrated on: more
// closed-loop clients would only queue for the same two cores.
const conns = 2

const (
	streamLoads = 16 // loads per Stream request
	streamDepth = 4  // pipeline depth each Stream asks for
	shedderSpec = "shedder:0.4"
	// checkEvery: every checkEvery-th result per connection is re-run in
	// process and byte-compared with what the daemon answered.
	checkEvery = 50
)

// A workload is one traffic mix. The request count of a run is
// perSecond × --seconds, a function of the flags alone, so two runs of the
// same workload do equal work and their memory and recovery figures compare.
// perSecond was set near what the daemon sustained on a 2-core machine, so
// the measured phase lasts about --seconds there.
type workload struct {
	name    string
	m       int
	durable bool // dlsd runs with -ledger-dir
	stream  bool // each request is a Stream of streamLoads loads at streamDepth
	open    bool // open loop (Poisson arrivals at perSecond); else closed loop
	fresh   bool // a fresh seeded network per request; else one per connection
	// perSecond is requests (rounds, or streams) per second of --seconds,
	// across both connections; for the open loop it is the arrival rate.
	perSecond float64
	// deviantEvery: one in deviantEvery requests carries one shedder (0: none).
	deviantEvery int
	// replay is how many requests the traced replay re-serves in process.
	replay int
	// restarts is how many times the daemon is restarted over the run's
	// ledger; recovery_s is their median. One restart of the open workload's
	// ledger takes ~4s and varied ±12% on identical ledgers, so it gets
	// three; the m=64 ledgers take ~12s, which the run budget allows once.
	restarts int
}

var workloads = []workload{
	{name: "round-m64-durable", m: 64, durable: true, perSecond: 300, replay: 300, restarts: 1},
	{name: "stream-m64-durable-d4", m: 64, durable: true, stream: true, perSecond: 20, replay: 20, restarts: 1},
	{name: "round-m64-mem", m: 64, perSecond: 1650, replay: 300, restarts: 1},
	{name: "open-m8-durable-fresh", m: 8, durable: true, open: true, fresh: true, perSecond: 45, deviantEvery: 20, replay: 300, restarts: 3},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// opsPer is the number of acknowledged loads one request yields.
func (w workload) opsPer() int {
	if w.stream {
		return streamLoads
	}
	return 1
}

// request is one generated request: a Round, or a Stream's template round.
// On closed loops request i is sent by connection i % conns.
type request struct {
	round   wire.Round
	due     time.Duration // open loop: offset from the start of the phase
	deviant int           // shedder position, 0 when truthful
}

// plan is everything a run sends, derived from the seed alone.
type plan struct {
	w      workload
	hellos [conns]wire.Hello
	reqs   []request
}

// newPlan derives a run's sessions, networks, round seeds, arrival times and
// deviant positions from seed. scale shrinks the request count (smoke mode).
func newPlan(w workload, seed uint64, seconds, scale float64) *plan {
	r := xrand.New(seed)
	netRand, seedRand, arrRand, devRand := r.Split(), r.Split(), r.Split(), r.Split()
	p := &plan{w: w}
	spec := chains.DefaultChainSpec(w.m)
	var fixed [conns]*dlt.Network
	for c := range p.hellos {
		p.hellos[c] = wire.Hello{Tenant: fmt.Sprintf("bench-%d", c), Size: w.m + 1, Seed: r.Uint64()}
		fixed[c] = chains.Chain(netRand, spec)
	}

	n := int(math.Round(w.perSecond * seconds * scale))
	if !w.open {
		n = (n + conns - 1) / conns * conns // whole rounds of the connections
	}
	if n < conns {
		n = conns
	}
	var dues []time.Duration
	if w.open {
		dues = poissonSchedule(arrRand, n, w.perSecond)
	}
	p.reqs = make([]request, n)
	for i := range p.reqs {
		rq := &p.reqs[i]
		net := fixed[i%conns]
		if w.fresh {
			net = chains.Chain(netRand, spec)
		}
		rq.round = baseRound(net, uint64(i*w.opsPer()+1), seedRand.Uint64())
		if dues != nil {
			rq.due = dues[i]
		}
	}
	if w.deviantEvery > 0 {
		// Exactly one deviant in each block of deviantEvery requests, at a
		// seeded index and a seeded position with a successor to shed onto.
		for b := 0; b < n; b += w.deviantEvery {
			i := b + devRand.Intn(w.deviantEvery)
			if i >= n {
				continue
			}
			pos := 1 + devRand.Intn(w.m-1)
			p.reqs[i].deviant = pos
			p.reqs[i].round.Deviants = []wire.Deviant{{Pos: pos, Spec: shedderSpec}}
		}
	}
	return p
}

// baseRound is a truthful round with the default mechanism config and the
// fast detector budget (25ms base timeout, one retransmission) whose worst
// case passes dlsd's default admission cap at m=64.
func baseRound(n *dlt.Network, seq, seed uint64) wire.Round {
	cfg := core.DefaultConfig()
	return wire.Round{
		Seq:       seq,
		Seed:      seed,
		W:         n.W,
		Z:         n.Z,
		Fine:      cfg.Fine,
		AuditProb: cfg.AuditProb,
		TimeoutNs: int64(25 * time.Millisecond),
		Retries:   1,
		Backoff:   1.5,
	}
}

// warmRound is the round that makes connection c warm during set-up and
// recovery. Its Seq sits far above any measured one.
func (p *plan) warmRound(c int, k uint64) wire.Round {
	rq := p.reqs[c].round
	rq.Deviants = nil
	rq.Seq = 1<<40 + k
	rq.Seed = ^k
	return rq
}

// stream wraps a request as the Stream the stream workload sends.
func (rq *request) stream() wire.Stream {
	return wire.Stream{Count: streamLoads, Depth: streamDepth, SeedStride: 1, Round: rq.round}
}

// load returns the k-th load of a stream request as the round the daemon
// runs for it.
func (rq *request) load(k int) wire.Round {
	r := rq.round
	r.Seq += uint64(k)
	r.Seed += uint64(k)
	return r
}

// checkResult applies the per-ack output checks: the round completed and
// conserved money, and detections are exactly what the request's deviant
// should produce — one load-shedding detection naming its position — and
// none for a truthful request.
func checkResult(rq wire.Round, deviant int, rr wire.RoundResult) error {
	if rr.Seq != rq.Seq {
		return fmt.Errorf("seq %d answered as %d", rq.Seq, rr.Seq)
	}
	if !rr.Completed || !rr.NetZero {
		return fmt.Errorf("seq %d: completed=%v netZero=%v (%s)", rq.Seq, rr.Completed, rr.NetZero, rr.TermReason)
	}
	if deviant == 0 {
		if len(rr.Detections) != 0 {
			return fmt.Errorf("seq %d: truthful round has %d detections", rq.Seq, len(rr.Detections))
		}
		return nil
	}
	if len(rr.Detections) != 1 {
		return fmt.Errorf("seq %d: deviant round has %d detections, want 1", rq.Seq, len(rr.Detections))
	}
	d := rr.Detections[0]
	if d.Violation != string(protocol.ViolationOverload) || d.Offender != deviant {
		return fmt.Errorf("seq %d: detection %s naming P%d, want %s naming P%d",
			rq.Seq, d.Violation, d.Offender, protocol.ViolationOverload, deviant)
	}
	return nil
}
