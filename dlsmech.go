// Package dlsmech is a Go implementation of DLS-LBL, the strategyproof
// mechanism with verification for scheduling arbitrarily divisible loads on
// linear processor networks with boundary load origination, from:
//
//	Thomas E. Carroll and Daniel Grosu. "A Strategyproof Mechanism for
//	Scheduling Divisible Loads in Linear Networks." IPPS 2007.
//
// The library has three layers, all reachable from this package:
//
//   - Scheduling (Divisible Load Theory): Schedule runs the LINEAR
//     BOUNDARY-LINEAR algorithm — the classical optimal allocation in which
//     every processor participates and all finish simultaneously — and a
//     discrete-event simulator (Simulate) regenerates the paper's Gantt
//     chart and executes off-plan deviations.
//
//   - Mechanism economics: EvaluateMechanism prices a run — the compensation,
//     recompense and bonus payments of equations (4.4)-(4.11) — given the
//     agents' bids and measured behavior. Truth-telling and full-speed
//     execution are a dominant strategy (Theorem 5.3), truthful agents never
//     lose (Theorem 5.4); UtilityCurve and friends measure exactly that.
//
//   - The verification protocol: RunProtocol executes Phases I-IV as an
//     actual message-passing system — one goroutine per processor, ed25519
//     digital signatures, tamper-proof meters, Λ data attestations, a
//     grievance/arbitration path and probabilistic payment audits — with
//     strategic behaviors injected per processor.
//
// Quick start:
//
//	net, _ := dlsmech.NewNetwork([]float64{1, 2, 1.5}, []float64{0.2, 0.1})
//	plan, _ := dlsmech.Schedule(net)
//	fmt.Println(plan.Alpha, plan.Makespan())
//
// See examples/ for complete programs and EXPERIMENTS.md for the full
// reproduction record.
package dlsmech

import (
	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/des"
	"dlsmech/internal/dlt"
	"dlsmech/internal/dynamics"
	"dlsmech/internal/experiments"
	"dlsmech/internal/fault"
	"dlsmech/internal/obs"
	"dlsmech/internal/protocol"
	"dlsmech/internal/verify"
	"dlsmech/internal/workload"
)

// --- Scheduling layer (Divisible Load Theory) -------------------------------

// Network is a linear network with boundary load origination: W[i] is the
// per-unit processing time of P_i, Z[i] the per-unit time of the link into
// P_i (Z[0] = 0).
type Network = dlt.Network

// Allocation is the solution of the LINEAR BOUNDARY-LINEAR problem.
type Allocation = dlt.Allocation

// NewNetwork builds and validates a network from processor times w (length
// m+1) and link times z (length m).
func NewNetwork(w, z []float64) (*Network, error) { return dlt.NewNetwork(w, z) }

// Schedule computes the optimal allocation for a unit load (Algorithm 1 of
// the paper): minimal makespan, every processor participating, all finishing
// at the same instant (Theorem 2.1).
func Schedule(n *Network) (*Allocation, error) { return dlt.SolveBoundary(n) }

// FinishTimes evaluates equations (2.1)-(2.2): each processor's completion
// time under an arbitrary allocation.
func FinishTimes(n *Network, alpha []float64) []float64 { return dlt.FinishTimes(n, alpha) }

// Makespan returns max_j T_j(α).
func Makespan(n *Network, alpha []float64) float64 { return dlt.Makespan(n, alpha) }

// FinishSpread returns the gap between the earliest and latest finish times
// of the processors with positive load — ~0 iff the allocation realizes the
// Theorem 2.1 equal-finish optimality principle.
func FinishSpread(n *Network, alpha []float64) float64 { return dlt.FinishSpread(n, alpha) }

// --- Simulation layer --------------------------------------------------------

// SimResult is the outcome of a discrete-event simulation.
type SimResult = des.Result

// SimSpec configures an (optionally off-plan) simulation run.
type SimSpec = des.Spec

// SimFaults injects timed crashes and link delays into a simulation run.
type SimFaults = des.FaultSpec

// Simulate runs the optimal plan of n through the discrete-event simulator
// for a unit load.
func Simulate(n *Network) (*SimResult, error) { return des.RunPlan(n) }

// SimulateSpec runs an arbitrary (possibly deviating) simulation.
func SimulateSpec(spec SimSpec) (*SimResult, error) { return des.Run(spec) }

// RenderGantt renders the paper's Figure 2 for a simulation result as ASCII
// art, width columns wide (0 = default).
func RenderGantt(res *SimResult, width int) string {
	return des.Gantt{Width: width}.RenderString(res)
}

// Multi-installment (multiround) scheduling, after reference [21].
type (
	// Round is one installment of a multiround plan.
	Round = des.Round
	// MultiSpec configures a multiround simulation.
	MultiSpec = des.MultiSpec
	// MultiResult is its outcome.
	MultiResult = des.MultiResult
)

// SimulateMulti runs a multi-installment plan through the one-port chain.
func SimulateMulti(spec MultiSpec) (*MultiResult, error) { return des.RunMulti(spec) }

// FluidInstallments builds the R-round plan multiround scheduling benefits
// from (load split proportionally to processing rate).
func FluidInstallments(n *Network, load float64, rounds int) ([]Round, error) {
	return des.FluidInstallments(n, load, rounds)
}

// EqualInstallments splits the load into R rounds with the single-round
// optimal fractions (useful as the "no-reoptimization" baseline).
func EqualInstallments(n *Network, load float64, rounds int) ([]Round, error) {
	return des.EqualInstallments(n, load, rounds)
}

// RenderMultiGantt renders a multi-installment schedule as ASCII art.
func RenderMultiGantt(res *MultiResult, width int) string {
	return des.Gantt{Width: width}.RenderMultiString(res)
}

// --- Mechanism economics ------------------------------------------------------

// Config carries the mechanism parameters: the fine F, the audit
// probability q and the optional solution bonus S.
type Config = core.Config

// MechReport describes agents' bids and measured behavior for evaluation.
type MechReport = core.Report

// Outcome is the priced result: plan, payments and utilities.
type Outcome = core.Outcome

// DefaultConfig returns the parameters used throughout the experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// EvaluateMechanism prices one run of the mechanism analytically.
func EvaluateMechanism(trueNet *Network, rep MechReport, cfg Config) (*Outcome, error) {
	return core.Evaluate(trueNet, rep, cfg)
}

// EvaluateTruthful prices the all-honest run.
func EvaluateTruthful(trueNet *Network, cfg Config) (*Outcome, error) {
	return core.EvaluateTruthful(trueNet, cfg)
}

// UtilityCurve sweeps agent i's bid over t_i·factor and returns its
// utilities — the measurable form of Theorem 5.3 (the curve peaks at 1).
func UtilityCurve(trueNet *Network, i int, factors []float64, cfg Config) ([]float64, error) {
	return core.UtilityCurve(trueNet, i, factors, cfg)
}

// Best-response bidding dynamics (the paper's motivation, quantified).
type (
	// DynamicsRule prices one agent under a bid profile.
	DynamicsRule = dynamics.Rule
	// DynamicsResult is the settled profile and its realized makespan.
	DynamicsResult = dynamics.Result
	// DynamicsOptions tunes the grid and sweep budget.
	DynamicsOptions = dynamics.Options
)

// DLSLBLRule prices agents with the paper's mechanism; best responses are
// truthful, so dynamics keep the schedule optimal.
func DLSLBLRule(cfg Config) DynamicsRule { return dynamics.DLSLBL{Cfg: cfg} }

// DeclaredCostRule is the naive contract that pays declared cost — the
// arrangement plain DLT implies among selfish owners. Bids inflate under
// it.
func DeclaredCostRule() DynamicsRule { return dynamics.DeclaredCost{} }

// RunDynamics plays round-robin best-response bidding from the truthful
// profile until a fixed point.
func RunDynamics(rule DynamicsRule, truth *Network, opts DynamicsOptions) (*DynamicsResult, error) {
	return dynamics.Run(rule, truth, opts)
}

// --- Verification protocol ----------------------------------------------------

// Behavior is one owner strategy (truthful, overbid, shedder, ...).
type Behavior = agent.Behavior

// Profile assigns a Behavior to every processor.
type Profile = agent.Profile

// ProtocolParams configures a protocol run.
type ProtocolParams = protocol.Params

// ProtocolResult is the outcome: detections, fines, ledger and utilities.
type ProtocolResult = protocol.Result

// Canonical behaviors, re-exported for profile building.
var (
	Truthful     = agent.Truthful
	Overbid      = agent.Overbid
	Underbid     = agent.Underbid
	Slacker      = agent.Slacker
	Shedder      = agent.Shedder
	Contradictor = agent.Contradictor
	Miscomputer  = agent.Miscomputer
	Overcharger  = agent.Overcharger
	FalseAccuser = agent.FalseAccuser
	Corruptor    = agent.Corruptor
	SilentVictim = agent.SilentVictim
	Deserter     = agent.Deserter
	AllTruthful  = agent.AllTruthful
)

// RunProtocol executes Phases I-IV of DLS-LBL as a message-passing system
// with the given behaviors injected.
func RunProtocol(p ProtocolParams) (*ProtocolResult, error) { return protocol.Run(p) }

// --- Fault injection & recovery -----------------------------------------------

// FaultRule is one injection clause: a failure Kind targeting a processor
// and phase, with optional probability, delay and firing budget.
type FaultRule = fault.Rule

// FaultInjector decides, deterministically per (seed, rules), which
// messages and phase entries misbehave during a protocol run.
type FaultInjector = fault.Injector

// FaultPlan is the standard seeded FaultInjector.
type FaultPlan = fault.Plan

// NewFaultPlan builds a deterministic injector from a seed and rules.
func NewFaultPlan(seed uint64, rules ...FaultRule) *FaultPlan { return fault.NewPlan(seed, rules...) }

// Failure kinds and wildcards, re-exported for rule building.
const (
	FaultDrop       = fault.Drop
	FaultDelay      = fault.Delay
	FaultDuplicate  = fault.Duplicate
	FaultReorder    = fault.Reorder
	FaultCorruptSig = fault.CorruptSig
	FaultCrash      = fault.Crash
	FaultStall      = fault.Stall

	AnyProc = fault.AnyProc

	PhaseAny   = fault.PhaseAny
	PhaseBid   = fault.PhaseBid
	PhaseAlloc = fault.PhaseAlloc
	PhaseLoad  = fault.PhaseLoad
	PhaseBill  = fault.PhaseBill
)

// RecoveryConfig tunes the protocol's failure detectors (timeout, retries,
// backoff) and the recovery driver's round bound.
type RecoveryConfig = protocol.RecoveryConfig

// RecoveryResult aggregates a RunProtocolWithRecovery outcome: per-round
// results, the surviving chain and the processors spliced out.
type RecoveryResult = protocol.RecoveryResult

// DefaultRecovery returns the default detector configuration.
func DefaultRecovery() RecoveryConfig { return protocol.DefaultRecovery() }

// RunProtocolWithRecovery executes the protocol with graceful degradation:
// processors declared dead (or excluded for invalid signatures) are spliced
// out of the chain and LINEAR BOUNDARY-LINEAR re-runs on the survivors,
// re-establishing equal finish times (Theorem 2.1) on the reduced network.
func RunProtocolWithRecovery(p ProtocolParams) (*RecoveryResult, error) {
	return protocol.RunWithRecovery(p)
}

// --- Observability --------------------------------------------------------------

// Observability types, re-exported from internal/obs. ObsHooks plugs into
// ProtocolParams.Hooks, SimSpec.Hooks and MarketConfig-style entry points;
// ObsCollector is the standard implementation feeding an ObsRegistry
// (metrics; Prometheus text or JSON snapshots) and an ObsTracer
// (deterministic span trees; Chrome trace_event export).
type (
	// ObsHooks is the profiling-hook interface the runtime calls into.
	ObsHooks = obs.Hooks
	// ObsNop is the zero-overhead disabled implementation.
	ObsNop = obs.Nop
	// ObsCollector implements ObsHooks over a registry and a tracer.
	ObsCollector = obs.Collector
	// ObsRegistry is the metrics registry.
	ObsRegistry = obs.Registry
	// ObsTracer records hierarchical spans with deterministic IDs.
	ObsTracer = obs.Tracer
	// ObsSpan is one recorded span.
	ObsSpan = obs.Span
	// ObsSnapshot is a point-in-time copy of a registry.
	ObsSnapshot = obs.Snapshot
)

// NewObsCollector builds a collector over fresh metrics and trace sinks.
func NewObsCollector() *ObsCollector { return obs.NewCollector() }

// SetExperimentHooks installs observability hooks on the experiment engine
// (every experiment run is bracketed as an "experiment:<id>" span). Pass nil
// to uninstall.
func SetExperimentHooks(h ObsHooks) { experiments.SetHooks(h) }

// ValidateChromeTrace checks an exported trace document against the
// checked-in trace_event schema.
func ValidateChromeTrace(doc []byte) error { return obs.ValidateChromeTrace(doc) }

// ValidateMetricsSnapshot checks an exported JSON metrics snapshot against
// the checked-in schema.
func ValidateMetricsSnapshot(doc []byte) error { return obs.ValidateMetricsSnapshot(doc) }

// --- Conformance & adversarial verification --------------------------------------

// ConformanceSuite replays the paper's theorems (2.1, 5.1-5.4), the
// differential oracles (float vs exact big.Rat, vs the LP formulation) and
// the metamorphic invariances over a seeds × sizes matrix of random chains.
// `dlsverify` is its CLI; see TESTING.md.
type ConformanceSuite = verify.Suite

// ConformanceReport is the schema-validated artifact of a suite run.
type ConformanceReport = verify.Report

// ConformanceVerdict is one checker outcome inside a report.
type ConformanceVerdict = verify.Verdict

// ConformanceScenario is one cell (network, config, seed) the individual
// theorem checkers replay through real protocol rounds.
type ConformanceScenario = verify.Scenario

// ConformanceStrategy is one catalogued adversarial strategy with its
// expected detection outcome.
type ConformanceStrategy = verify.Strategy

// StrategyCatalog returns the adversarial strategies the conformance suite
// replays — at least one per deviation class of Lemma 5.1, plus the
// execution-level deviations the protocol handles beyond the paper.
func StrategyCatalog() []ConformanceStrategy { return verify.Catalog() }

// ValidateConformanceReport checks an exported conformance report against
// the checked-in JSON schema.
func ValidateConformanceReport(doc []byte) error { return verify.ValidateReport(doc) }

// --- Workloads and experiments -------------------------------------------------

// Scenario is a named example workload.
type Scenario = workload.Scenario

// Scenarios returns the built-in workload catalogue.
func Scenarios() []Scenario { return workload.Scenarios() }

// ScenarioByName looks up one catalogue entry.
func ScenarioByName(name string) (Scenario, error) { return workload.ScenarioByName(name) }

// ExperimentReport is the regenerated artifact of one experiment.
type ExperimentReport = experiments.Report

// ExperimentIDs lists the reproducible experiments (see EXPERIMENTS.md).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one experiment with the given seed.
func RunExperiment(id string, seed uint64) (*ExperimentReport, error) {
	return experiments.Run(id, seed)
}

// RunAllExperiments regenerates the whole evaluation.
func RunAllExperiments(seed uint64) ([]*ExperimentReport, error) {
	return experiments.RunAll(seed)
}

// RunAllExperimentsParallel regenerates the whole evaluation on a pool of
// `workers` goroutines (workers <= 0 means one per CPU). The reports are
// deep-equal to RunAllExperiments(seed) for every worker count; only the
// wall-clock measurements embedded in the protocol-overhead ablation's table
// vary between runs.
func RunAllExperimentsParallel(seed uint64, workers int) ([]*ExperimentReport, error) {
	return experiments.RunAllParallel(seed, workers)
}
