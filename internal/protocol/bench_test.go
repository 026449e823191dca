package protocol

import (
	"testing"

	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/workload"
	"dlsmech/internal/xrand"
)

// BenchmarkChainRound is the profiling vehicle for the engine: run it with
// -cpuprofile to see where a warm round spends its time. Its profile is
// dominated by the Go scheduler (one goroutine per processor, every message
// a channel rendezvous along the chain). dlsbench's protocol_round op
// measures warm rounds wall-clock; this exists so `go tool pprof` can
// attribute them.

const benchM = 1024

// chainParams builds a deterministic truthful round at the given size.
func chainParams(size int, seed uint64) Params {
	net := workload.Chain(xrand.New(seed), workload.DefaultChainSpec(size-1))
	return Params{
		Net:      net,
		Profile:  agent.AllTruthful(size),
		Cfg:      core.DefaultConfig(),
		Seed:     seed,
		Recovery: fastRec(),
	}
}

func BenchmarkChainRound(b *testing.B) {
	p := chainParams(benchM, 11)
	sess := NewSession(benchM, 11)
	if res, err := sess.Run(p); err != nil || !res.Completed {
		b.Fatalf("warmup chain round failed: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Run(p)
		if err != nil || !res.Completed {
			b.Fatalf("chain round failed: %v", err)
		}
	}
}
