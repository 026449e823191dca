package experiments

import (
	"math"

	"dlsmech/internal/core"
	"dlsmech/internal/des"
	"dlsmech/internal/dlt"
	"dlsmech/internal/dynamics"
	"dlsmech/internal/plot"
	"dlsmech/internal/stats"
	"dlsmech/internal/table"
	"dlsmech/internal/workload"
	"dlsmech/internal/xrand"
)

func init() {
	register("E9", "Best-response dynamics: DLS-LBL vs a naive contract", runE9)
	register("A7", "Multi-installment scheduling (multiround, ref [21])", runA7)
}

// runE9 quantifies the paper's motivation: plain DLT deployed among selfish
// owners (a naive declared-cost contract) versus the same allocator wrapped
// in DLS-LBL payments. Round-robin best-response dynamics settle at the
// truthful profile under the mechanism and at inflated bids — with a
// degraded realized makespan — under the naive contract.
func runE9(seed uint64) (*Report, error) {
	rep := &Report{ID: "E9", Title: "Best-response dynamics", Paper: "Sect. 1 motivation + Theorem 5.3"}
	r := xrand.New(seed)
	const trials = 6

	tb := table.New("E9: round-robin best responses from the truthful profile ("+table.Cell(trials)+" random chains per m)",
		"m", "rule", "converged", "mean bid inflation", "realized/optimal makespan")
	truthfulStays, naiveInflates := true, true
	var naiveWorse int
	var naiveRuns int
	for _, m := range []int{2, 4, 6} {
		for _, rule := range []dynamics.Rule{
			dynamics.DLSLBL{Cfg: core.DefaultConfig()},
			dynamics.DeclaredCost{},
		} {
			var infl, degr []float64
			conv := true
			for t := 0; t < trials; t++ {
				n := workload.Chain(r, workload.DefaultChainSpec(m))
				res, err := dynamics.Run(rule, n, dynamics.Options{})
				if err != nil {
					return nil, err
				}
				conv = conv && res.Converged
				infl = append(infl, res.MeanInflation)
				degr = append(degr, res.Degradation())
				switch rule.(type) {
				case dynamics.DLSLBL:
					if math.Abs(res.MeanInflation-1) > 1e-9 || res.Degradation() > 1+1e-9 {
						truthfulStays = false
					}
				case dynamics.DeclaredCost:
					naiveRuns++
					if res.Degradation() > 1+1e-6 {
						naiveWorse++
					}
				}
			}
			if _, isNaive := rule.(dynamics.DeclaredCost); isNaive && stats.Mean(infl) <= 1.02 {
				naiveInflates = false
			}
			tb.AddRowValues(m, rule.Name(), conv, stats.Mean(infl), stats.Mean(degr))
		}
	}
	rep.Tables = append(rep.Tables, tb)
	rep.check(truthfulStays, "under DLS-LBL every owner stays truthful and the schedule stays optimal")
	rep.check(naiveInflates, "under the declared-cost contract bids inflate away from the truth")
	rep.check(naiveWorse > naiveRuns/2,
		"the naive contract degrades the realized makespan in %d/%d runs", naiveWorse, naiveRuns)
	return rep, nil
}

// runA7 measures multi-installment scheduling: with the single-round
// optimal fractions extra rounds change nothing (the root is the
// bottleneck); with fluid-limit fractions the makespan falls toward the
// perfect-parallelism bound as rounds grow; per-transfer startups turn the
// curve back up, producing the classic interior optimum.
func runA7(seed uint64) (*Report, error) {
	rep := &Report{ID: "A7", Title: "Multi-installment scheduling", Paper: "extension (ref [21])"}
	_ = seed
	n, err := dlt.NewNetwork(
		[]float64{1, 1, 1, 1, 1, 1, 1, 1},
		[]float64{0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05},
	)
	if err != nil {
		return nil, err
	}
	single, err := des.RunPlan(n)
	if err != nil {
		return nil, err
	}
	var invSum float64
	for _, w := range n.W {
		invSum += 1 / w
	}
	bound := 1 / invSum

	tb := table.New("A7: makespan vs installments (homogeneous 8-chain, z/w=0.05; single-round optimum "+
		table.Cell(single.Makespan)+", parallel bound "+table.Cell(bound)+")",
		"rounds", "same fractions", "fluid fractions", "fluid + startup 0.01", "tail start (fluid)")
	var fluidSeries, startupSeries, sameSeries, roundsSeen []float64
	for _, R := range []int{1, 2, 4, 8, 16, 32, 64} {
		same, err := des.EqualInstallments(n, 1, R)
		if err != nil {
			return nil, err
		}
		sameRes, err := des.RunMulti(des.MultiSpec{Net: n, Rounds: same})
		if err != nil {
			return nil, err
		}
		fluid, err := des.FluidInstallments(n, 1, R)
		if err != nil {
			return nil, err
		}
		fluidRes, err := des.RunMulti(des.MultiSpec{Net: n, Rounds: fluid})
		if err != nil {
			return nil, err
		}
		startRes, err := des.RunMulti(des.MultiSpec{Net: n, Rounds: fluid, StartupZ: 0.01})
		if err != nil {
			return nil, err
		}
		fluidSeries = append(fluidSeries, fluidRes.Makespan)
		startupSeries = append(startupSeries, startRes.Makespan)
		sameSeries = append(sameSeries, sameRes.Makespan)
		roundsSeen = append(roundsSeen, float64(R))
		tb.AddRowValues(R, sameRes.Makespan, fluidRes.Makespan, startRes.Makespan, fluidRes.Start[n.M()])
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Plots = append(rep.Plots, plot.Chart{
		Title:  "A7: makespan vs installments (note the startup U-curve)",
		XLabel: "rounds R", YLabel: "makespan",
	}.Render(
		plot.Series{Name: "same fractions", X: roundsSeen, Y: sameSeries},
		plot.Series{Name: "fluid fractions", X: roundsSeen, Y: fluidSeries},
		plot.Series{Name: "fluid + startup", X: roundsSeen, Y: startupSeries},
	))

	best := fluidSeries[len(fluidSeries)-1]
	rep.check(stats.Monotone(fluidSeries, -1, 1e-9), "fluid makespan is non-increasing in rounds")
	rep.check(best < single.Makespan && best < bound*1.1,
		"64 fluid rounds beat the single-round optimum (%.4g < %.4g) and approach the bound %.4g",
		best, single.Makespan, bound)
	turn := stats.ArgMax(negate(startupSeries))
	rep.check(turn > 0 && turn < len(startupSeries)-1,
		"with per-transfer startup the curve has an interior optimum (best at index %d)", turn)
	return rep, nil
}

func negate(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}
