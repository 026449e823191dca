package protocol

import (
	"math"
	"testing"

	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/xrand"
)

// testTree builds a fixed 6-node tree:
//
//	        0 (w=1.0)
//	       /          \
//	   1 (1.8)      4 (1.5)
//	   /     \          \
//	2 (1.2) 3 (2.4)   5 (2.0)
func testTree(t *testing.T) *dlt.TreeNode {
	t.Helper()
	n2 := &dlt.TreeNode{W: 1.2}
	n3 := &dlt.TreeNode{W: 2.4}
	n1 := &dlt.TreeNode{W: 1.8, Children: []dlt.TreeEdge{{Z: 0.1, Node: n2}, {Z: 0.2, Node: n3}}}
	n5 := &dlt.TreeNode{W: 2.0}
	n4 := &dlt.TreeNode{W: 1.5, Children: []dlt.TreeEdge{{Z: 0.12, Node: n5}}}
	root := &dlt.TreeNode{W: 1.0, Children: []dlt.TreeEdge{{Z: 0.15, Node: n1}, {Z: 0.18, Node: n4}}}
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	return root
}

func runTreeWith(t *testing.T, root *dlt.TreeNode, prof agent.Profile, cfg core.Config, seed uint64) *TreeResult {
	t.Helper()
	res, err := RunTree(TreeParams{Root: root, Profile: prof, Cfg: cfg, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTreeParamValidation(t *testing.T) {
	t.Parallel()
	root := testTree(t)
	cfg := core.DefaultConfig()
	if _, err := RunTree(TreeParams{Root: root, Profile: agent.AllTruthful(2), Cfg: cfg}); err == nil {
		t.Fatal("short profile accepted")
	}
	if _, err := RunTree(TreeParams{Root: root, Profile: agent.AllTruthful(6).WithDeviant(0, agent.Overbid(2)), Cfg: cfg}); err == nil {
		t.Fatal("dishonest root accepted")
	}
	if _, err := RunTree(TreeParams{Root: root, Profile: agent.AllTruthful(6), Cfg: core.Config{Fine: 1, AuditProb: 0}}); err == nil {
		t.Fatal("invalid config accepted")
	}
	bad := &dlt.TreeNode{W: -1}
	if _, err := RunTree(TreeParams{Root: bad, Profile: agent.AllTruthful(1), Cfg: cfg}); err == nil {
		t.Fatal("invalid tree accepted")
	}
}

func TestTreeTruthfulMatchesAnalytic(t *testing.T) {
	t.Parallel()
	// The tree protocol must realize exactly the DLS-T economics.
	root := testTree(t)
	cfg := core.DefaultConfig()
	res := runTreeWith(t, root, agent.AllTruthful(6), cfg, 1)
	if !res.Completed {
		t.Fatalf("truthful tree run terminated: %s", res.TermReason)
	}
	if len(res.Detections) != 0 {
		t.Fatalf("truthful run produced detections: %+v", res.Detections)
	}
	want, err := core.EvaluateTree(root, core.TreeTruthfulReport(root), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Utilities {
		if math.Abs(res.Utilities[i]-want.Payments[i].Utility) > 1e-9 {
			t.Fatalf("U_%d protocol %v vs analytic %v", i, res.Utilities[i], want.Payments[i].Utility)
		}
	}
	// Retained loads match the analytic allocation.
	flat := want.BidTree.Flatten()
	for i, node := range flat {
		if math.Abs(res.Retained[i]-want.Plan.Alpha[node]) > 1e-9 {
			t.Fatalf("retained_%d %v vs plan %v", i, res.Retained[i], want.Plan.Alpha[node])
		}
	}
}

func TestTreeChainShapeMatchesChainProtocol(t *testing.T) {
	t.Parallel()
	// A chain-shaped tree must price exactly like the chain protocol.
	r := xrand.New(7)
	for trial := 0; trial < 5; trial++ {
		n := randomChainNet(r, 1+r.Intn(5))
		chainRes, err := Run(Params{Net: n, Profile: agent.AllTruthful(n.Size()), Cfg: core.DefaultConfig(), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		treeRes, err := RunTree(TreeParams{Root: dlt.Chain(n), Profile: agent.AllTruthful(n.Size()), Cfg: core.DefaultConfig(), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := range chainRes.Utilities {
			if math.Abs(chainRes.Utilities[i]-treeRes.Utilities[i]) > 1e-9 {
				t.Fatalf("trial %d U_%d: chain %v vs tree %v", trial, i, chainRes.Utilities[i], treeRes.Utilities[i])
			}
		}
	}
}

func randomChainNet(r *xrand.Rand, m int) *dlt.Network {
	w := make([]float64, m+1)
	z := make([]float64, m)
	for i := range w {
		w[i] = r.Uniform(0.5, 4)
	}
	for i := range z {
		z[i] = r.Uniform(0.05, 0.5)
	}
	n, err := dlt.NewNetwork(w, z)
	if err != nil {
		panic(err)
	}
	return n
}

func TestTreeContradictorCaught(t *testing.T) {
	t.Parallel()
	root := testTree(t)
	cfg := core.DefaultConfig()
	res := runTreeWith(t, root, agent.AllTruthful(6).WithDeviant(4, agent.Contradictor()), cfg, 2)
	if res.Completed {
		t.Fatal("contradiction did not terminate")
	}
	ds := res.DetectionsFor(4)
	if len(ds) != 1 || ds[0].Violation != ViolationContradiction {
		t.Fatalf("detections %+v", res.Detections)
	}
	if ds[0].Reporter != 0 { // node 4's parent is the root
		t.Fatalf("reporter %d, want parent 0", ds[0].Reporter)
	}
}

func TestTreeMiscomputerCaught(t *testing.T) {
	t.Parallel()
	// Node 1 (internal) misassigns its first child's share; the child (2)
	// re-runs the star arithmetic and catches it.
	root := testTree(t)
	cfg := core.DefaultConfig()
	res := runTreeWith(t, root, agent.AllTruthful(6).WithDeviant(1, agent.Miscomputer()), cfg, 3)
	if res.Completed {
		t.Fatal("wrong computation did not terminate")
	}
	ds := res.DetectionsFor(1)
	if len(ds) != 1 || ds[0].Violation != ViolationWrongCompute {
		t.Fatalf("detections %+v", res.Detections)
	}
	if ds[0].Reporter != 2 {
		t.Fatalf("reporter %d, want first child 2", ds[0].Reporter)
	}
	if res.Utilities[1] >= 0 {
		t.Fatalf("miscomputer utility %v", res.Utilities[1])
	}
}

// TestTreeEarlyTerminationVoidsPhase3 pins the determinism of a run that
// fails in Phase I or II: no load is distributed, so the root and any node
// that raced the abort into Phase III report no retained load and no
// valuation — each utility is exactly the node's ledger balance, however
// far the abort got. Twenty seeds give the scheduler room to race.
func TestTreeEarlyTerminationVoidsPhase3(t *testing.T) {
	t.Parallel()
	root := testTree(t)
	cfg := core.DefaultConfig()
	for _, dev := range []struct {
		pos int
		b   agent.Behavior
	}{{1, agent.Miscomputer()}, {4, agent.Contradictor()}} {
		for seed := uint64(1); seed <= 20; seed++ {
			res := runTreeWith(t, root, agent.AllTruthful(6).WithDeviant(dev.pos, dev.b), cfg, seed)
			if res.Completed {
				t.Fatalf("%s seed %d: run completed", dev.b.Label, seed)
			}
			for i := range res.Retained {
				if res.Retained[i] != 0 {
					t.Fatalf("%s seed %d: retained_%d = %v in a Phase I/II termination", dev.b.Label, seed, i, res.Retained[i])
				}
				if res.Utilities[i] != res.Ledger.Balance(i) {
					t.Fatalf("%s seed %d: U_%d = %v, want the ledger balance %v", dev.b.Label, seed, i, res.Utilities[i], res.Ledger.Balance(i))
				}
			}
		}
	}
}

func TestTreeShedderCaughtAndUnprofitable(t *testing.T) {
	t.Parallel()
	root := testTree(t)
	cfg := core.DefaultConfig()
	honest := runTreeWith(t, root, agent.AllTruthful(6), cfg, 4)
	res := runTreeWith(t, root, agent.AllTruthful(6).WithDeviant(1, agent.Shedder(0.4)), cfg, 4)
	if !res.Completed {
		t.Fatalf("tree shedding should not terminate: %s", res.TermReason)
	}
	ds := res.DetectionsFor(1)
	if len(ds) != 1 || ds[0].Violation != ViolationOverload {
		t.Fatalf("detections %+v", res.Detections)
	}
	if ds[0].Reporter != 2 { // the first child absorbs the dump
		t.Fatalf("reporter %d, want 2", ds[0].Reporter)
	}
	if res.Utilities[1] >= honest.Utilities[1] {
		t.Fatalf("tree shedding profitable: %v vs %v", res.Utilities[1], honest.Utilities[1])
	}
	// The victim is at least made whole.
	if res.Utilities[2] < honest.Utilities[2]-1e-9 {
		t.Fatalf("victim worse off: %v vs %v", res.Utilities[2], honest.Utilities[2])
	}
}

func TestTreeOverchargerDeterrence(t *testing.T) {
	t.Parallel()
	root := testTree(t)
	cfg := core.DefaultConfig()
	var caught int
	var devSum, honSum float64
	const runs = 60
	for s := uint64(0); s < runs; s++ {
		res := runTreeWith(t, root, agent.AllTruthful(6).WithDeviant(3, agent.Overcharger(0.5)), cfg, s)
		if !res.Completed {
			t.Fatalf("seed %d terminated: %s", s, res.TermReason)
		}
		if len(res.DetectionsFor(3)) > 0 {
			caught++
		}
		devSum += res.Utilities[3]
		honest := runTreeWith(t, root, agent.AllTruthful(6), cfg, s)
		honSum += honest.Utilities[3]
	}
	rate := float64(caught) / runs
	if rate < 0.05 || rate > 0.5 {
		t.Fatalf("tree audit rate %v, expected ≈ 0.25", rate)
	}
	if devSum/runs >= honSum/runs {
		t.Fatalf("tree overcharging profitable on average: %v vs %v", devSum/runs, honSum/runs)
	}
}

func TestTreeHonestBillsSurviveFullAudit(t *testing.T) {
	t.Parallel()
	root := testTree(t)
	cfg := core.Config{Fine: 10, AuditProb: 1}
	res := runTreeWith(t, root, agent.AllTruthful(6), cfg, 5)
	if len(res.Detections) != 0 {
		t.Fatalf("honest tree bills failed audit: %+v", res.Detections)
	}
	want, _ := core.EvaluateTree(root, core.TreeTruthfulReport(root), cfg)
	for i := range res.Utilities {
		if math.Abs(res.Utilities[i]-want.Payments[i].Utility) > 1e-9 {
			t.Fatalf("audited tree U_%d %v vs %v", i, res.Utilities[i], want.Payments[i].Utility)
		}
	}
}

func TestTreeCorruptorAndSolutionBonus(t *testing.T) {
	t.Parallel()
	root := testTree(t)
	cfg := core.DefaultConfig()
	cfg.SolutionBonus = 0.05
	honest := runTreeWith(t, root, agent.AllTruthful(6), cfg, 6)
	if !honest.SolutionFound {
		t.Fatal("honest tree run lost the solution")
	}
	res := runTreeWith(t, root, agent.AllTruthful(6).WithDeviant(4, agent.Corruptor()), cfg, 6)
	if res.SolutionFound {
		t.Fatal("corruption left the solution intact")
	}
	if res.Utilities[4] >= honest.Utilities[4] {
		t.Fatalf("tree corruption not punished by S: %v vs %v", res.Utilities[4], honest.Utilities[4])
	}
}

func TestTreeMisreportersUnprofitable(t *testing.T) {
	t.Parallel()
	root := testTree(t)
	cfg := core.DefaultConfig()
	honest := runTreeWith(t, root, agent.AllTruthful(6), cfg, 8)
	for _, b := range []agent.Behavior{agent.Overbid(1.5), agent.Underbid(0.6), agent.Slacker(2)} {
		res := runTreeWith(t, root, agent.AllTruthful(6).WithDeviant(1, b), cfg, 8)
		if !res.Completed || len(res.Detections) != 0 {
			t.Fatalf("%s: misreporting is legal on trees too", b.Label)
		}
		if res.Utilities[1] > honest.Utilities[1]+1e-9 {
			t.Fatalf("%s profitable on the tree: %v vs %v", b.Label, res.Utilities[1], honest.Utilities[1])
		}
	}
}

func TestTreeDeterministic(t *testing.T) {
	t.Parallel()
	root := testTree(t)
	prof := agent.AllTruthful(6).WithDeviant(1, agent.Shedder(0.5))
	a := runTreeWith(t, root, prof, core.DefaultConfig(), 9)
	b := runTreeWith(t, root, prof, core.DefaultConfig(), 9)
	for i := range a.Utilities {
		if a.Utilities[i] != b.Utilities[i] {
			t.Fatal("tree runs nondeterministic")
		}
	}
}

func TestTreeSingleNode(t *testing.T) {
	t.Parallel()
	root := &dlt.TreeNode{W: 2}
	res := runTreeWith(t, root, agent.AllTruthful(1), core.DefaultConfig(), 10)
	if !res.Completed || math.Abs(res.Retained[0]-1) > 1e-9 || math.Abs(res.Utilities[0]) > 1e-9 {
		t.Fatalf("degenerate tree run: %+v", res)
	}
}

func TestTreeRandomTruthfulMatchesAnalytic(t *testing.T) {
	t.Parallel()
	r := xrand.New(11)
	var build func(depth int) *dlt.TreeNode
	build = func(depth int) *dlt.TreeNode {
		node := &dlt.TreeNode{W: r.Uniform(0.5, 3)}
		if depth > 0 {
			kids := 1 + r.Intn(3)
			for k := 0; k < kids; k++ {
				node.Children = append(node.Children, dlt.TreeEdge{Z: r.Uniform(0.05, 0.4), Node: build(depth - 1)})
			}
		}
		return node
	}
	cfg := core.DefaultConfig()
	for trial := 0; trial < 8; trial++ {
		root := build(1 + r.Intn(2))
		size := root.CountNodes()
		res, err := RunTree(TreeParams{Root: root, Profile: agent.AllTruthful(size), Cfg: cfg, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || len(res.Detections) != 0 {
			t.Fatalf("trial %d failed: %s %+v", trial, res.TermReason, res.Detections)
		}
		want, err := core.EvaluateTree(root, core.TreeTruthfulReport(root), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Utilities {
			if math.Abs(res.Utilities[i]-want.Payments[i].Utility) > 1e-8 {
				t.Fatalf("trial %d U_%d: %v vs %v", trial, i, res.Utilities[i], want.Payments[i].Utility)
			}
		}
	}
}
