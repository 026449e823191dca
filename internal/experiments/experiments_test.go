package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"F2", "F3", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
		"A1", "A2", "A3", "A5", "A7", "A11", "A12", "A13", "A15"}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry holds %v, want exactly %v", got, want)
	}
	titles := Titles()
	for _, id := range want {
		if titles[id] == "" {
			t.Fatalf("experiment %s has no title", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestEveryExperimentPasses is the repository's reproduction gate: each
// experiment regenerates its artifact and all of its checks must pass.
func TestEveryExperimentPasses(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if id == "E6" && testing.Short() {
				t.Skip("E6 runs 2400 protocol instances; skipped with -short")
			}
			rep, err := Run(id, 12345)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != id {
				t.Fatalf("report id %q", rep.ID)
			}
			if len(rep.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			if len(rep.Findings) == 0 {
				t.Fatal("no findings recorded")
			}
			if !rep.Passed() {
				t.Fatalf("experiment failed:\n%s", strings.Join(rep.Findings, "\n"))
			}
			for _, tb := range rep.Tables {
				if tb.NumRows() == 0 {
					t.Fatalf("empty table %q", tb.Title)
				}
			}
		})
	}
}

func TestPlotsPresent(t *testing.T) {
	for _, id := range []string{"E3", "A1"} {
		rep, err := Run(id, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Plots) == 0 {
			t.Fatalf("%s produced no plots", id)
		}
		for _, p := range rep.Plots {
			if !strings.Contains(p, "|") {
				t.Fatalf("%s plot looks empty:\n%s", id, p)
			}
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"F3", "E1", "E3"} {
		a, err := Run(id, 777)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, 777)
		if err != nil {
			t.Fatal(err)
		}
		if a.Tables[0].String() != b.Tables[0].String() {
			t.Fatalf("%s not deterministic", id)
		}
	}
}

func TestSeedChangesData(t *testing.T) {
	a, _ := Run("E1", 1)
	b, _ := Run("E1", 2)
	if a.Tables[0].String() == b.Tables[0].String() {
		t.Fatal("different seeds produced identical tables")
	}
}

func TestPassedDetectsFailure(t *testing.T) {
	r := &Report{}
	r.check(true, "fine")
	if !r.Passed() {
		t.Fatal("passing report flagged failed")
	}
	r.check(false, "broken")
	if r.Passed() {
		t.Fatal("failing report flagged passed")
	}
}

// reportsEquivalent asserts the determinism contract between two engines'
// reports for the same experiment: deep equality of every rendered artifact,
// except that Volatile experiments (wall-clock tables) are held to their
// Findings only.
func reportsEquivalent(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.ID != b.ID || a.Title != b.Title || a.Paper != b.Paper {
		t.Fatalf("%s: header mismatch: %q/%q vs %q/%q", label, a.ID, a.Title, b.ID, b.Title)
	}
	if !reflect.DeepEqual(a.Findings, b.Findings) {
		t.Fatalf("%s: %s findings diverged:\n%v\nvs\n%v", label, a.ID, a.Findings, b.Findings)
	}
	if Volatile(a.ID) {
		return
	}
	if !reflect.DeepEqual(a.Plots, b.Plots) {
		t.Fatalf("%s: %s plots diverged", label, a.ID)
	}
	if len(a.Tables) != len(b.Tables) {
		t.Fatalf("%s: %s table count %d vs %d", label, a.ID, len(a.Tables), len(b.Tables))
	}
	for i := range a.Tables {
		if a.Tables[i].String() != b.Tables[i].String() {
			t.Fatalf("%s: %s table %d diverged:\n%s\nvs\n%s",
				label, a.ID, i, a.Tables[i].String(), b.Tables[i].String())
		}
	}
}

// TestRunAllParallelMatchesRunAll is the engine's acceptance test: for every
// worker count — the sequential reference included — RunAllParallel yields
// reports deep-equal to RunAll at the canonical seed, with the trial loops
// pinned to the same fan-out.
func TestRunAllParallelMatchesRunAll(t *testing.T) {
	defer SetTrialWorkers(0)
	SetTrialWorkers(1)
	ref, err := RunAll(12345)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	if testing.Short() {
		counts = []int{4}
	}
	seen := map[int]bool{}
	for _, k := range counts {
		if seen[k] {
			continue
		}
		seen[k] = true
		SetTrialWorkers(k)
		got, err := RunAllParallel(12345, k)
		if err != nil {
			t.Fatalf("workers=%d: %v", k, err)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d reports, want %d", k, len(got), len(ref))
		}
		for i := range ref {
			reportsEquivalent(t, fmt.Sprintf("workers=%d", k), ref[i], got[i])
		}
	}
}

// TestRunAllParallelErrorMatchesSequential checks the failure contract on a
// synthetic registry: same wrapped error (the first failing experiment in
// presentation order) and same completed prefix as the sequential engine.
func TestRunAllParallelErrorMatchesSequential(t *testing.T) {
	old := registry
	defer func() { registry = old }()
	boom := errors.New("boom")
	okRun := func(id string) Runner {
		return func(seed uint64) (*Report, error) {
			return &Report{ID: id, Findings: []string{"ok: synthetic"}}, nil
		}
	}
	registry = nil
	register("E1", "ok", okRun("E1"))
	register("E2", "fails", func(seed uint64) (*Report, error) { return nil, boom })
	register("E3", "ok", okRun("E3"))
	register("E4", "fails too", func(seed uint64) (*Report, error) { return nil, boom })

	seqRep, seqErr := RunAll(1)
	for _, k := range []int{1, 3} {
		parRep, parErr := RunAllParallel(1, k)
		if !errors.Is(parErr, boom) || parErr.Error() != seqErr.Error() {
			t.Fatalf("workers=%d: error %v, want %v", k, parErr, seqErr)
		}
		if len(parRep) != len(seqRep) {
			t.Fatalf("workers=%d: prefix %d, want %d", k, len(parRep), len(seqRep))
		}
		for i := range seqRep {
			if parRep[i].ID != seqRep[i].ID {
				t.Fatalf("workers=%d: prefix[%d] = %s, want %s", k, i, parRep[i].ID, seqRep[i].ID)
			}
		}
	}
}

func TestSetTrialWorkersClampsNegative(t *testing.T) {
	defer SetTrialWorkers(0)
	SetTrialWorkers(-5)
	if got := trialWorkers(); got != 0 {
		t.Fatalf("trialWorkers() = %d after SetTrialWorkers(-5)", got)
	}
}
