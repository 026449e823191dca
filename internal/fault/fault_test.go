package fault

import (
	"testing"
	"time"
)

func TestPlanDeterminism(t *testing.T) {
	t.Parallel()
	rules := []Rule{
		{Kind: Drop, Proc: AnyProc, Phase: PhaseAny, Prob: 0.5},
		{Kind: Delay, Proc: 1, Phase: PhaseBid, Prob: 0.3, Delay: time.Millisecond},
	}
	a, b := NewPlan(42, rules...), NewPlan(42, rules...)
	for i := 0; i < 200; i++ {
		proc := i % 4
		ph := Phase(1 + i%4)
		x, y := a.OnSend(proc, ph), b.OnSend(proc, ph)
		if x != y {
			t.Fatalf("consultation %d diverged: %+v vs %+v", i, x, y)
		}
	}
	fa, fb := a.Fired(), b.Fired()
	if len(fa) != len(fb) {
		t.Fatalf("fired counts differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("fired[%d] differs: %v vs %v", i, fa[i], fb[i])
		}
	}
	if len(fa) == 0 {
		t.Fatal("probabilistic rules never fired in 200 consultations")
	}
}

func TestPlanBudget(t *testing.T) {
	t.Parallel()
	p := NewPlan(1, Rule{Kind: Drop, Proc: 2, Phase: PhaseBid, Times: 1})
	if !p.OnSend(2, PhaseBid).Drop {
		t.Fatal("budgeted rule did not fire on first opportunity")
	}
	for i := 0; i < 10; i++ {
		if p.OnSend(2, PhaseBid).Drop {
			t.Fatal("exhausted rule fired again")
		}
	}
	if got := len(p.Fired()); got != 1 {
		t.Fatalf("fired %d events, want 1", got)
	}
}

func TestPlanMatching(t *testing.T) {
	t.Parallel()
	p := NewPlan(1,
		Rule{Kind: Crash, Proc: 3, Phase: PhaseLoad},
		Rule{Kind: Stall, Proc: AnyProc, Phase: PhaseBill, Delay: 7 * time.Millisecond},
	)
	if p.CrashBefore(3, PhaseBid) || p.CrashBefore(2, PhaseLoad) {
		t.Fatal("crash fired outside its (proc, phase) target")
	}
	if !p.CrashBefore(3, PhaseLoad) {
		t.Fatal("crash did not fire at its target")
	}
	if d := p.StallBefore(1, PhaseBill); d != 7*time.Millisecond {
		t.Fatalf("stall %v, want 7ms", d)
	}
	if d := p.StallBefore(1, PhaseLoad); d != 0 {
		t.Fatalf("stall fired in wrong phase: %v", d)
	}
}

func TestPhaseAnyWildcard(t *testing.T) {
	t.Parallel()
	p := NewPlan(1, Rule{Kind: Duplicate, Proc: AnyProc, Phase: PhaseAny})
	for _, ph := range []Phase{PhaseBid, PhaseAlloc, PhaseLoad, PhaseBill} {
		if !p.OnSend(0, ph).Duplicate {
			t.Fatalf("wildcard rule missed phase %v", ph)
		}
	}
}

func TestRemap(t *testing.T) {
	t.Parallel()
	// The rule names original processor 3, which after one exclusion sits at
	// chain position 2.
	p := NewPlan(1, Rule{Kind: Crash, Proc: 3, Phase: PhaseLoad})
	m := Remap(p, []int{0, 1, 3})
	if m.CrashBefore(1, PhaseLoad) {
		t.Fatal("remap crashed the wrong processor")
	}
	if !m.CrashBefore(2, PhaseLoad) {
		t.Fatal("remap missed the renumbered target")
	}
	// Out-of-range positions pass through unchanged.
	if Remap(p, []int{0}).CrashBefore(5, PhaseLoad) {
		t.Fatal("out-of-range position matched")
	}
}

func TestNoneAndZeroPlan(t *testing.T) {
	t.Parallel()
	for _, in := range []Injector{None, NewPlan(9)} {
		if a := in.OnSend(0, PhaseBid); a != (Action{}) {
			t.Fatalf("empty injector produced %+v", a)
		}
		if in.CrashBefore(0, PhaseBid) || in.StallBefore(0, PhaseBid) != 0 {
			t.Fatal("empty injector fired a processor fault")
		}
	}
}

func TestRuleAndEventStrings(t *testing.T) {
	t.Parallel()
	r := Rule{Kind: Drop, Proc: 2, Phase: PhaseBid, Prob: 0.5, Times: 3}
	if got := r.String(); got != "drop@P2/bid p=0.5 x3" {
		t.Fatalf("rule string %q", got)
	}
	e := Event{Proc: 1, Phase: PhaseLoad, Kind: Crash}
	if got := e.String(); got != "crash@P1/load" {
		t.Fatalf("event string %q", got)
	}
	if Phase(99).String() == "" || Kind(99).String() == "" {
		t.Fatal("unknown enum strings empty")
	}
}

func TestProbabilityRoughlyHonored(t *testing.T) {
	t.Parallel()
	p := NewPlan(7, Rule{Kind: Drop, Proc: AnyProc, Phase: PhaseAny, Prob: 0.5})
	drops := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if p.OnSend(0, PhaseBid).Drop {
			drops++
		}
	}
	if drops < n/3 || drops > 2*n/3 {
		t.Fatalf("p=0.5 rule fired %d/%d times", drops, n)
	}
}
