package experiments

import (
	"math"

	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/parallel"
	"dlsmech/internal/protocol"
	"dlsmech/internal/table"
	"dlsmech/internal/workload"
)

func init() {
	register("A15", "End-to-end pipeline on the workload catalogue", runA15)
}

// runA15 runs the whole stack — optimal scheduling, truthful mechanism
// pricing, signed protocol — on every catalogue scenario and reports the
// headline numbers a deployment would care about: speedup over no
// distribution, what the incentives cost, and that the protocol realizes the
// analytic economics on each scenario.
func runA15(seed uint64) (*Report, error) {
	rep := &Report{ID: "A15", Title: "Scenario catalogue, end to end", Paper: "all layers, per deployment scenario"}
	cfg := core.DefaultConfig()

	tb := table.New("A15: catalogue scenarios (unit-load quantities scale linearly with the load)",
		"scenario", "m+1", "makespan", "speedup", "payment overhead", "protocol = analytic")
	allAgree, allSpeedup := true, true
	// The catalogue is a fixed list and each scenario runs the full stack
	// independently (the protocol run is the expensive part), so the
	// scenarios fan out; rows land in catalogue order.
	scs := workload.Scenarios()
	type a15Row struct {
		makespan, speedup, overhead float64
		agree                       bool
	}
	rows, err := parallel.Map(trialWorkers(), len(scs), func(k int) (a15Row, error) {
		n := scs[k].Net
		sol := dlt.MustSolveBoundary(n)
		row := a15Row{makespan: sol.Makespan()}
		row.speedup = n.W[0] / sol.Makespan() // vs computing everything at the root

		out, err := core.EvaluateTruthful(n, cfg)
		if err != nil {
			return row, err
		}
		var cost, paid float64
		for _, p := range out.Payments {
			cost += -p.Valuation
			paid += p.Total
		}
		row.overhead = paid / cost

		run, err := protocol.Run(protocol.Params{
			Net: n, Profile: agent.AllTruthful(n.Size()), Cfg: cfg, Seed: seed,
		})
		if err != nil {
			return row, err
		}
		var gap float64
		for i := range run.Utilities {
			if d := math.Abs(run.Utilities[i] - out.Payments[i].Utility); d > gap {
				gap = d
			}
		}
		row.agree = run.Completed && len(run.Detections) == 0 && gap < 1e-9
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for k, row := range rows {
		if !row.agree {
			allAgree = false
		}
		if row.speedup <= 1 {
			allSpeedup = false
		}
		tb.AddRowValues(scs[k].Name, scs[k].Net.Size(), row.makespan, row.speedup, row.overhead, row.agree)
	}
	rep.Tables = append(rep.Tables, tb)
	rep.check(allSpeedup, "every scenario gains from distribution")
	rep.check(allAgree, "on every scenario the signed protocol realizes the analytic payments exactly")
	return rep, nil
}
