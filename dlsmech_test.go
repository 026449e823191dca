package dlsmech

import (
	"math"
	"strings"
	"testing"
)

func TestQuickstartPath(t *testing.T) {
	net, err := NewNetwork([]float64{1, 2, 1.5}, []float64{0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Schedule(net)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, a := range plan.Alpha {
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("alpha sums to %v", sum)
	}
	if got := Makespan(net, plan.Alpha); math.Abs(got-plan.Makespan()) > 1e-9 {
		t.Fatalf("makespan mismatch %v vs %v", got, plan.Makespan())
	}
	ts := FinishTimes(net, plan.Alpha)
	for _, ti := range ts {
		if math.Abs(ti-plan.Makespan()) > 1e-9 {
			t.Fatalf("finish times not equal: %v", ts)
		}
	}
}

func TestSimulateAndGantt(t *testing.T) {
	net, _ := NewNetwork([]float64{1, 2, 1.5}, []float64{0.2, 0.1})
	res, err := Simulate(net)
	if err != nil {
		t.Fatal(err)
	}
	chart := RenderGantt(res, 40)
	if !strings.Contains(chart, "@") {
		t.Fatalf("gantt missing bars:\n%s", chart)
	}
}

func TestMechanismFacade(t *testing.T) {
	net, _ := NewNetwork([]float64{1, 2, 1.5, 3}, []float64{0.2, 0.1, 0.3})
	cfg := DefaultConfig()
	out, err := EvaluateTruthful(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < net.Size(); j++ {
		if out.Payments[j].Utility < -1e-9 {
			t.Fatalf("truthful utility negative: %v", out.Payments[j].Utility)
		}
	}
	curve, err := UtilityCurve(net, 1, []float64{0.8, 1.0, 1.2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if curve[1] < curve[0] || curve[1] < curve[2] {
		t.Fatalf("utility curve does not peak at truth: %v", curve)
	}
}

func TestProtocolFacade(t *testing.T) {
	net, _ := NewNetwork([]float64{1, 2, 1.5, 3}, []float64{0.2, 0.1, 0.3})
	prof := AllTruthful(4).WithDeviant(2, Shedder(0.5))
	res, err := RunProtocol(ProtocolParams{Net: net, Profile: prof, Cfg: DefaultConfig(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DetectionsFor(2)) != 1 {
		t.Fatalf("shedder not detected: %+v", res.Detections)
	}
}

func TestMultiroundFacade(t *testing.T) {
	net, _ := NewNetwork([]float64{1, 1, 1, 1}, []float64{0.05, 0.05, 0.05})
	single, _ := Simulate(net)
	rounds, err := FluidInstallments(net, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateMulti(MultiSpec{Net: net, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan >= single.Makespan {
		t.Fatalf("multiround did not beat single round: %v vs %v", res.Makespan, single.Makespan)
	}
	if _, err := EqualInstallments(net, 1, 4); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicsFacade(t *testing.T) {
	net, _ := NewNetwork([]float64{1, 2, 1.5}, []float64{0.2, 0.1})
	res, err := RunDynamics(DLSLBLRule(DefaultConfig()), net, DynamicsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || math.Abs(res.MeanInflation-1) > 1e-9 {
		t.Fatalf("DLS-LBL dynamics: %+v", res)
	}
	naive, err := RunDynamics(DeclaredCostRule(), net, DynamicsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if naive.MeanInflation <= 1 {
		t.Fatalf("naive rule did not inflate: %v", naive.MeanInflation)
	}
}

func TestScenariosFacade(t *testing.T) {
	if len(Scenarios()) == 0 {
		t.Fatal("no scenarios")
	}
	s, err := ScenarioByName("lan-cluster")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Schedule(s.Net); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentsFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 22 {
		t.Fatalf("%d experiments registered", len(ids))
	}
	rep, err := RunExperiment("F3", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("F3 failed: %v", rep.Findings)
	}
}
