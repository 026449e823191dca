package dlsmech

// The benchmark harness: one Benchmark per reproduced figure/theorem/ablation
// (regenerating the corresponding EXPERIMENTS.md table end to end), plus
// micro-benchmarks for the hot paths (the solver, the simulator, the
// mechanism evaluation and the signed protocol).
//
// Run everything with:
//
//	go test -bench=. -benchmem ./...

import (
	"fmt"
	"testing"

	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/des"
	"dlsmech/internal/dlt"
	"dlsmech/internal/experiments"
	"dlsmech/internal/obs"
	"dlsmech/internal/protocol"
	"dlsmech/internal/workload"
	"dlsmech/internal/xrand"
)

// benchExperiment regenerates one experiment per iteration and fails the
// benchmark if the reproduction check fails — the benches double as a
// reproduction gate.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, 12345)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed() {
			b.Fatalf("%s failed: %v", id, rep.Findings)
		}
	}
}

func BenchmarkF2Gantt(b *testing.B)            { benchExperiment(b, "F2") }
func BenchmarkF3Reduction(b *testing.B)        { benchExperiment(b, "F3") }
func BenchmarkE1Optimality(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2Baselines(b *testing.B)        { benchExperiment(b, "E2") }
func BenchmarkE3Strategyproof(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4Participation(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5Detection(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE6Audit(b *testing.B)            { benchExperiment(b, "E6") }
func BenchmarkE7SolutionBonus(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8DESAgreement(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkA1Scaling(b *testing.B)          { benchExperiment(b, "A1") }
func BenchmarkA2PaymentOverhead(b *testing.B)  { benchExperiment(b, "A2") }
func BenchmarkA3ProtocolOverhead(b *testing.B) { benchExperiment(b, "A3") }
func BenchmarkE9Dynamics(b *testing.B)         { benchExperiment(b, "E9") }
func BenchmarkA5FineCalibration(b *testing.B)  { benchExperiment(b, "A5") }
func BenchmarkA7Multiround(b *testing.B)       { benchExperiment(b, "A7") }
func BenchmarkA11Collusion(b *testing.B)       { benchExperiment(b, "A11") }
func BenchmarkE10Evolution(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkA12Conditioning(b *testing.B)    { benchExperiment(b, "A12") }
func BenchmarkA13LPOracle(b *testing.B)        { benchExperiment(b, "A13") }
func BenchmarkE11Market(b *testing.B)          { benchExperiment(b, "E11") }
func BenchmarkA15Scenarios(b *testing.B)       { benchExperiment(b, "A15") }

// --- Micro-benchmarks: the hot paths behind the experiments -----------------

func BenchmarkSolveBoundary(b *testing.B) {
	for _, m := range []int{8, 64, 512, 4096} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			n := workload.Chain(xrand.New(1), workload.DefaultChainSpec(m))
			var a dlt.Allocation
			dlt.SolveBoundaryInto(n, &a) // warm the scratch: steady state is 0 allocs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dlt.SolveBoundaryInto(n, &a)
			}
		})
	}
}

func BenchmarkFinishTimes(b *testing.B) {
	n := workload.Chain(xrand.New(1), workload.DefaultChainSpec(512))
	sol := dlt.MustSolveBoundary(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dlt.FinishTimes(n, sol.Alpha)
	}
}

func BenchmarkDESRun(b *testing.B) {
	for _, m := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			n := workload.Chain(xrand.New(1), workload.DefaultChainSpec(m))
			sol := dlt.MustSolveBoundary(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := des.Run(des.Spec{Net: n, PlanHat: sol.AlphaHat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEvaluateMechanism(b *testing.B) {
	for _, m := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			n := workload.Chain(xrand.New(1), workload.DefaultChainSpec(m))
			cfg := core.DefaultConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EvaluateTruthful(n, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProtocolRound measures one full four-phase signed protocol round
// (keygen amortized away by the PKI living inside Run; ed25519 dominates).
//
// The hooks variants price the observability subsystem: "off" is the nil
// default (a non-instrumented round), "nop" pays only the interface dispatch
// at each call site (TestNopDispatchAllocs in internal/obs pins that
// dispatch to 0 allocs/op, so off and nop must benchmark identically), and
// "collector" records full metrics + spans.
func BenchmarkProtocolRound(b *testing.B) {
	variants := []struct {
		name  string
		hooks func() obs.Hooks
	}{
		{"hooks=off", func() obs.Hooks { return nil }},
		{"hooks=nop", func() obs.Hooks { return obs.Nop{} }},
		{"hooks=collector", func() obs.Hooks { return obs.NewCollector() }},
	}
	for _, m := range []int{8, 64, 512} {
		for _, v := range variants {
			if m == 512 && v.name != "hooks=off" {
				continue // the overhead story is told at the smaller sizes
			}
			b.Run(fmt.Sprintf("m=%d/%s", m, v.name), func(b *testing.B) {
				n := workload.Chain(xrand.New(1), workload.DefaultChainSpec(m))
				prof := agent.AllTruthful(n.Size())
				cfg := core.DefaultConfig()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := protocol.Run(protocol.Params{Net: n, Profile: prof, Cfg: cfg, Seed: uint64(i), Hooks: v.hooks()})
					if err != nil {
						b.Fatal(err)
					}
					if !res.Completed {
						b.Fatal("truthful run terminated")
					}
				}
			})
		}
	}
}

// BenchmarkProtocolSessionRound measures the protocol fast path: a
// steady-state round on a warm Session, where keys, PKI verification memos,
// sign memos, channels, and scratch arenas all persist across rounds. This
// is the deployment shape for repeated rounds (the served daemon's pooled
// sessions) and the headline number of the wire-codec + batch-verify +
// pooling optimization; BenchmarkProtocolRound above remains the cold
// (fresh-session) reference.
func BenchmarkProtocolSessionRound(b *testing.B) {
	for _, m := range []int{8, 64, 128} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			n := workload.Chain(xrand.New(1), workload.DefaultChainSpec(m))
			p := protocol.Params{
				Net:     n,
				Profile: agent.AllTruthful(n.Size()),
				Cfg:     core.DefaultConfig(),
				Seed:    1,
			}
			sess := protocol.NewSession(n.Size(), p.Seed)
			if _, err := sess.Run(p); err != nil { // warm the memos and arenas
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sess.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal("truthful session round terminated")
				}
			}
		})
	}
}

// BenchmarkEvaluate measures the allocation-free mechanism evaluation the
// property sweeps and the parallel experiment engine run on: EvaluateInto
// over a warm Outcome must report 0 allocs/op.
func BenchmarkEvaluate(b *testing.B) {
	for _, m := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			n := workload.Chain(xrand.New(1), workload.DefaultChainSpec(m))
			cfg := core.DefaultConfig()
			rep := core.TruthfulReport(n)
			var out core.Outcome
			if err := core.EvaluateInto(&out, n, rep, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.EvaluateInto(&out, n, rep, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRunMulti(b *testing.B) {
	n := workload.Chain(xrand.New(1), workload.DefaultChainSpec(32))
	rounds, err := des.FluidInstallments(n, 1, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := des.RunMulti(des.MultiSpec{Net: n, Rounds: rounds}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUtilityCurve(b *testing.B) {
	n := workload.Chain(xrand.New(1), workload.DefaultChainSpec(16))
	cfg := core.DefaultConfig()
	factors := []float64{0.5, 0.75, 1, 1.5, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.UtilityCurve(n, 8, factors, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
