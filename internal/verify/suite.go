package verify

import (
	"fmt"

	"dlsmech/internal/core"
	"dlsmech/internal/obs"
	"dlsmech/internal/protocol"
	"dlsmech/internal/workload"
	"dlsmech/internal/xrand"
)

// Suite is the full conformance run: every checker over a seed×size matrix
// of randomly drawn chains.
type Suite struct {
	// Seeds drive workload sampling and every protocol round replayed per
	// cell (empty selects seed 1).
	Seeds []uint64
	// Sizes are chain sizes m — strategic processors per sampled network
	// (empty selects {8}).
	Sizes []int
	// Cfg is the mechanism configuration (zero value selects
	// core.DefaultConfig).
	Cfg core.Config
	// LambdaUnit, Recovery and Hooks are forwarded to every Scenario.
	LambdaUnit float64
	Recovery   protocol.RecoveryConfig
	Hooks      obs.Hooks
}

// cellSeed decorrelates the (seed, size) cells: the same base seed must not
// produce prefix-identical chains across sizes, and distinct base seeds
// must not collide (forcing a low bit would merge seeds 2k and 2k+1).
func cellSeed(seed uint64, size int) uint64 {
	h := (seed + 1) * 0x9e3779b97f4a7c15
	h ^= (uint64(size) + 1) * 0xbf58476d1ce4e5b9
	if h == 0 {
		h = 0x9e3779b97f4a7c15
	}
	return h
}

// Run executes the whole matrix and assembles the conformance report. It
// never returns a partial report: operational failures inside a checker are
// reported as violated verdicts (see errVerdict), so the error return only
// covers invalid suite parameters.
func (s *Suite) Run() (*Report, error) {
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	sizes := s.Sizes
	if len(sizes) == 0 {
		sizes = []int{8}
	}
	for _, m := range sizes {
		if m < 1 {
			return nil, fmt.Errorf("verify: invalid size %d (need m >= 1)", m)
		}
	}
	cfg := s.Cfg
	if cfg == (core.Config{}) {
		cfg = core.DefaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hooks := obs.Or(s.Hooks)

	rep := NewReport(cfg, seeds, sizes)
	for _, seed := range seeds {
		for _, m := range sizes {
			r := xrand.New(cellSeed(seed, m))
			net := workload.Chain(r, workload.DefaultChainSpec(m))
			sc := &Scenario{
				Net:        net,
				Cfg:        cfg,
				Seed:       seed,
				LambdaUnit: s.LambdaUnit,
				Recovery:   s.Recovery,
				Hooks:      s.Hooks,
			}
			run := func(name string, check func() []Verdict) {
				hooks.OnPhaseStart(obs.Root, "verify:"+name)
				rep.Add(check()...)
				hooks.OnPhaseEnd(obs.Root, "verify:"+name)
			}
			one := func(check func(*Scenario) Verdict) func() []Verdict {
				return func() []Verdict { return []Verdict{check(sc)} }
			}
			run("theorem-2.1", one(CheckTheorem21))
			run("theorem-5.1", func() []Verdict { return CheckTheorem51(sc) })
			run("theorem-5.2", one(CheckTheorem52))
			run("theorem-5.3", one(CheckTheorem53))
			run("theorem-5.4", one(CheckTheorem54))
			run("pipeline-equivalence", one(CheckPipelineEquivalence))
			run("pipeline-backlog", func() []Verdict { return CheckPipelineBacklog(sc) })
			run("oracle-exact", one(CheckExactOracle))
			run("oracle-lp", one(CheckLPOracle))
			run("oracle-metamorphic", one(CheckMetamorphic))
		}
	}
	rep.Finish()
	return rep, nil
}
