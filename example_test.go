package dlsmech_test

import (
	"fmt"

	"dlsmech"
)

// The basic flow: build a chain, compute the optimal schedule, check the
// equal-finish property of Theorem 2.1.
func ExampleSchedule() {
	net, _ := dlsmech.NewNetwork(
		[]float64{1, 2, 3}, // per-unit processing times w_0..w_2
		[]float64{0.5, 1},  // per-unit link times z_1, z_2
	)
	plan, _ := dlsmech.Schedule(net)
	fmt.Printf("makespan %.4f\n", plan.Makespan())
	for i, ti := range dlsmech.FinishTimes(net, plan.Alpha) {
		fmt.Printf("P%d finishes at %.4f\n", i, ti)
	}
	// Output:
	// makespan 0.6471
	// P0 finishes at 0.6471
	// P1 finishes at 0.6471
	// P2 finishes at 0.6471
}

// Pricing the truthful run: the root nets zero (4.3); every strategic
// owner earns its bonus w_{j-1} − w̄_{j-1} ≥ 0 (Theorem 5.4).
func ExampleEvaluateTruthful() {
	net, _ := dlsmech.NewNetwork([]float64{1, 2, 3}, []float64{0.5, 1})
	out, _ := dlsmech.EvaluateTruthful(net, dlsmech.DefaultConfig())
	for j, p := range out.Payments {
		fmt.Printf("P%d utility %.4f\n", j, p.Utility)
	}
	// Output:
	// P0 utility 0.0000
	// P1 utility 0.3529
	// P2 utility 0.6667
}

// Strategyproofness in one picture: agent 1's utility peaks at its
// truthful bid (Theorem 5.3).
func ExampleUtilityCurve() {
	net, _ := dlsmech.NewNetwork([]float64{1, 2, 3}, []float64{0.5, 1})
	utils, _ := dlsmech.UtilityCurve(net, 1, []float64{0.5, 1.0, 2.0}, dlsmech.DefaultConfig())
	fmt.Printf("underbid %.4f, truthful %.4f, overbid %.4f\n", utils[0], utils[1], utils[2])
	// Output:
	// underbid 0.0870, truthful 0.3529, overbid 0.2857
}

// Running the verification protocol with a load-shedding deviant: the
// victim detects the dump from its Λ attestation and the deviant is fined
// more than it could ever gain (Theorem 5.1).
func ExampleRunProtocol() {
	net, _ := dlsmech.NewNetwork([]float64{1, 2, 1.5, 3}, []float64{0.2, 0.1, 0.3})
	prof := dlsmech.AllTruthful(4).WithDeviant(2, dlsmech.Shedder(0.4))
	res, _ := dlsmech.RunProtocol(dlsmech.ProtocolParams{
		Net: net, Profile: prof, Cfg: dlsmech.DefaultConfig(), Seed: 1,
	})
	for _, d := range res.Detections {
		fmt.Printf("%s: offender P%d, reporter P%d\n", d.Violation, d.Offender, d.Reporter)
	}
	fmt.Printf("run completed: %v\n", res.Completed)
	// Output:
	// load-shedding: offender P2, reporter P3
	// run completed: true
}

// Best-response dynamics: under the mechanism the market equilibrium is the
// truthful profile, so the realized schedule stays optimal.
func ExampleRunDynamics() {
	net, _ := dlsmech.NewNetwork([]float64{1, 2, 1.5}, []float64{0.2, 0.1})
	res, _ := dlsmech.RunDynamics(dlsmech.DLSLBLRule(dlsmech.DefaultConfig()), net, dlsmech.DynamicsOptions{})
	fmt.Printf("converged=%v inflation=%.2f degradation=%.2f\n",
		res.Converged, res.MeanInflation, res.Degradation())
	// Output:
	// converged=true inflation=1.00 degradation=1.00
}
