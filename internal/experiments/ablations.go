package experiments

import (
	"fmt"
	"time"

	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/parallel"
	"dlsmech/internal/plot"
	"dlsmech/internal/protocol"
	"dlsmech/internal/stats"
	"dlsmech/internal/table"
	"dlsmech/internal/workload"
	"dlsmech/internal/xrand"
)

func init() {
	register("A1", "Makespan scaling and speedup saturation", runA1)
	register("A2", "Payment overhead (price of incentives)", runA2)
	register("A3", "Protocol overhead (messages, crypto, wall clock)", runA3)
	register("A5", "Fine calibration (cheating-profit envelope)", runA5)
}

// runA1 traces the speedup of a homogeneous chain as processors are added,
// for several z/w ratios. Because every byte must traverse the chain, the
// speedup saturates: past some depth extra processors contribute almost
// nothing. The saturation point moves in with the ratio.
func runA1(seed uint64) (*Report, error) {
	rep := &Report{ID: "A1", Title: "Scaling & saturation", Paper: "ablation (DESIGN.md A1)"}
	_ = seed // deterministic by construction

	ratios := []float64{0.01, 0.1, 0.5, 1.0}
	sizes := []int{1, 2, 4, 8, 16, 32, 64}
	headers := []string{"m+1"}
	for _, rt := range ratios {
		headers = append(headers, fmt.Sprintf("speedup z/w=%.2g", rt))
	}
	tb := table.New("A1: speedup over root-only on homogeneous chains (w=1)", headers...)
	// The (size, ratio) grid is RNG-free, so every cell solves independently;
	// the saturation scan below stays a sequential pass over the grid.
	grid, err := parallel.Map(trialWorkers(), len(sizes)*len(ratios), func(k int) (float64, error) {
		n := workload.RatioChain(sizes[k/len(ratios)]-1, ratios[k%len(ratios)])
		return 1.0 / dlt.MustSolveBoundary(n).Makespan(), nil // root-only makespan is w=1
	})
	if err != nil {
		return nil, err
	}
	saturation := map[float64]int{}
	prevBy := map[float64]float64{}
	speedups := map[float64][]float64{}
	for si, size := range sizes {
		row := []any{table.Cell(size)}
		for ri, rt := range ratios {
			speedup := grid[si*len(ratios)+ri]
			row = append(row, speedup)
			speedups[rt] = append(speedups[rt], speedup)
			if prev, ok := prevBy[rt]; ok && saturation[rt] == 0 && speedup-prev < 0.01*prev {
				saturation[rt] = size
			}
			prevBy[rt] = speedup
		}
		tb.AddRowValues(row...)
	}
	rep.Tables = append(rep.Tables, tb)

	xs := make([]float64, len(sizes))
	for i, s := range sizes {
		xs[i] = float64(s)
	}
	var curves []plot.Series
	for _, rt := range ratios {
		curves = append(curves, plot.Series{Name: fmt.Sprintf("z/w=%.2g", rt), X: xs, Y: speedups[rt]})
	}
	rep.Plots = append(rep.Plots, plot.Chart{
		Title: "A1: speedup saturation by link/compute ratio", XLabel: "m+1", YLabel: "speedup",
	}.Render(curves...))

	monotone := true
	for _, rt := range ratios {
		n1 := workload.RatioChain(3, rt)
		n2 := workload.RatioChain(31, rt)
		if dlt.MustSolveBoundary(n2).Makespan() > dlt.MustSolveBoundary(n1).Makespan()+1e-12 {
			monotone = false
		}
	}
	rep.check(monotone, "adding processors never hurts")
	for _, rt := range ratios {
		if s := saturation[rt]; s > 0 {
			rep.addFinding("z/w=%.2g saturates (<1%% marginal speedup) at m+1=%d", rt, s)
		} else {
			rep.addFinding("z/w=%.2g still gaining >1%% per doubling at m+1=%d", rt, sizes[len(sizes)-1])
		}
	}
	return rep, nil
}

// runA2 measures the budget the mechanism spends to buy truthfulness: total
// payments versus the true processing cost of the work, and the share of
// that overhead that is bonus (the incentive itself).
func runA2(seed uint64) (*Report, error) {
	rep := &Report{ID: "A2", Title: "Payment overhead", Paper: "ablation (DESIGN.md A2)"}
	cfg := core.DefaultConfig()
	r := xrand.New(seed)
	const trials = 20

	tb := table.New("A2: mechanism budget on truthful runs (means over random chains)",
		"m", "true cost", "total paid", "overhead = paid/cost", "overhead/m", "bonus share of paid")
	var overheads []float64
	neverUnderpays := true
	for _, m := range []int{1, 2, 4, 8, 16, 32} {
		var costs, paid, bonusShare []float64
		for t := 0; t < trials; t++ {
			n := workload.Chain(r, workload.DefaultChainSpec(m))
			out, err := core.EvaluateTruthful(n, cfg)
			if err != nil {
				return nil, err
			}
			var cost, total, bonus float64
			for _, p := range out.Payments {
				cost += -p.Valuation
				total += p.Total
				bonus += p.Bonus
			}
			if total < cost-1e-9 {
				neverUnderpays = false
			}
			costs = append(costs, cost)
			paid = append(paid, total)
			bonusShare = append(bonusShare, bonus/total)
		}
		oh := stats.Mean(paid) / stats.Mean(costs)
		overheads = append(overheads, oh)
		tb.AddRowValues(m, stats.Mean(costs), stats.Mean(paid), oh, oh/float64(m), stats.Mean(bonusShare))
	}
	rep.Tables = append(rep.Tables, tb)
	rep.check(neverUnderpays, "the mechanism never pays less than the measured cost (individual rationality)")
	rep.check(stats.Monotone(overheads, 1, 1e-9), "overhead grows with m")
	rep.addFinding("price of incentives is ≈ linear in m: overhead %.3g at m=1 vs %.3g at m=32 "+
		"(each hop adds a w_{j-1}−w̄_{j-1} bonus term — the mechanism is truthful but not frugal)",
		overheads[0], overheads[len(overheads)-1])
	return rep, nil
}

// runA3 prices the verification machinery: messages, signatures, signature
// verifications and wall-clock per protocol run, against the pure analytic
// evaluation of the same mechanism.
func runA3(seed uint64) (*Report, error) {
	rep := &Report{ID: "A3", Title: "Protocol overhead", Paper: "ablation (DESIGN.md A3)"}
	cfg := core.DefaultConfig()
	r := xrand.New(seed)

	tb := table.New("A3: cost of the signed protocol vs analytic evaluation",
		"m", "messages", "signatures", "verifications", "protocol time", "analytic time", "slowdown")
	linearMessages := true
	for _, m := range []int{2, 4, 8, 16, 32} {
		n := workload.Chain(r, workload.DefaultChainSpec(m))
		prof := agent.AllTruthful(n.Size())

		start := time.Now()
		res, err := protocol.Run(protocol.Params{Net: n, Profile: prof, Cfg: cfg, Seed: seed})
		if err != nil {
			return nil, err
		}
		protoDur := time.Since(start)

		start = time.Now()
		if _, err := core.EvaluateTruthful(n, cfg); err != nil {
			return nil, err
		}
		analyticDur := time.Since(start)

		// Data plane: m bids + m G + m loads + (m+1) bills = 4m+1.
		if res.Stats.Messages != int64(4*m+1) {
			linearMessages = false
		}
		slow := float64(protoDur) / float64(analyticDur)
		tb.AddRowValues(m, res.Stats.Messages, res.Stats.Signatures, res.Stats.Verifications,
			protoDur.String(), analyticDur.String(), slow)
	}
	rep.Tables = append(rep.Tables, tb)
	rep.check(linearMessages, "message complexity is exactly 4m+1 (linear in chain length)")
	rep.addFinding("signatures/verifications are O(m); wall-clock is dominated by ed25519")
	return rep, nil
}

// runA5 measures the cheating-profit envelope the fine F must dominate
// (Theorem 5.1's premise): the best pre-fine gain of the profitable
// deviations — partial load-shedding and overcharging — over random
// networks. The recommended F is a comfortable multiple of the envelope.
func runA5(seed uint64) (*Report, error) {
	rep := &Report{ID: "A5", Title: "Fine calibration", Paper: "Theorem 5.1 premise"}
	cfg := core.DefaultConfig()
	r := xrand.New(seed)
	const trials = 40

	tb := table.New("A5: best pre-fine deviation gain over random chains (unit load)",
		"m", "max shed gain", "at retain factor", "max overcharge gain is unbounded?")
	var worstShed float64
	for _, m := range []int{2, 4, 8, 16} {
		rowWorst, rowAt := 0.0, 0.0
		for t := 0; t < trials; t++ {
			n := workload.Chain(r, workload.DefaultChainSpec(m))
			for _, f := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9} {
				for i := 1; i < n.M(); i++ {
					gain, _, err := core.CheatingProfit(n, i, f, cfg)
					if err != nil {
						return nil, err
					}
					if gain > rowWorst {
						rowWorst, rowAt = gain, f
					}
				}
			}
		}
		if rowWorst > worstShed {
			worstShed = rowWorst
		}
		tb.AddRowValues(m, rowWorst, rowAt, "no: bounded by F/q audit expectation")
	}
	rep.Tables = append(rep.Tables, tb)
	rep.check(worstShed < cfg.Fine, "default F=%.3g dominates the measured envelope %.3g", cfg.Fine, worstShed)
	rep.addFinding("recommended F ≥ %.3g per unit load (measured envelope ×10 margin: %.3g)",
		worstShed, 10*worstShed)
	return rep, nil
}
