package server

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/ledger"
	"dlsmech/internal/protocol"
	"dlsmech/internal/verify"
	"dlsmech/internal/wire"
)

// AuditOptions tunes AuditLedger.
type AuditOptions struct {
	// Strict treats an open (neither settled nor voided) generation as a
	// violation. The daemon resumes or voids every interrupted round at
	// recovery, so a log with an open generation is one the daemon never
	// restarted over — dlsaudit defaults to strict.
	Strict bool
	// MaxTheoremCells caps the distinct (network, config, seed) cells
	// replayed through the theorem checkers; 0 means all. Cells beyond the
	// cap are reported as skipped verdicts, never silently dropped.
	MaxTheoremCells int
	// Logf receives progress lines. nil discards.
	Logf func(format string, args ...any)
}

// AuditLedger replays an evidence ledger end to end and renders the
// verdicts as a conformance report (the dlsverify schema):
//
//  1. structural issues and evidence forks collected while wiring the DAG;
//  2. per-session hash-chain and signature re-verification;
//  3. deterministic replay: every settled generation is re-run, in order,
//     on a fresh protocol session (a legacy one on the session's Λ stream,
//     the others seeded by their generation), the recomputed RoundResult
//     must be byte-identical to the settle payload on disk, and the
//     recomputed journal to the journal artifact (which every settle but a
//     legacy one carries). This is what crash recovery, which applies
//     journals, does not re-check;
//  4. the theorem checkers (2.1, 5.1–5.4) replayed against every distinct
//     (network, config, seed) cell the log's rounds exercised.
//
// The store must come from a successful ledger.Open or ledger.OpenDir, which
// hold the whole DAG — forged or truncated storage already failed there,
// before any report exists.
func AuditLedger(st *ledger.Store, opts AuditOptions) (*verify.Report, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	a := &auditor{st: st, opts: opts, logf: logf, cells: make(map[string]*verify.Scenario)}

	for _, is := range st.Issues() {
		a.add(failedVerdict("ledger-structure", is.Session, 0, is.String()))
	}
	for _, f := range st.Forks() {
		a.add(failedVerdict("ledger-fork", f.Session, 0,
			fmt.Sprintf("double submission: %s", f)))
	}

	sessions := st.Sessions()
	for _, sv := range sessions {
		a.auditSession(sv)
	}
	a.theoremSweep()

	if a.seeds == nil {
		a.seeds = []uint64{}
	}
	if a.sizes == nil {
		a.sizes = []int{}
	}
	rep := verify.NewReport(a.cfg, a.seeds, a.sizes)
	rep.GeneratedBy = "dlsaudit"
	rep.Add(a.verdicts...)
	rep.Finish()
	logf("audited %d sessions: %d checks, %d violations",
		len(sessions), rep.Summary.Checks, rep.Summary.Violations)
	return rep, nil
}

// auditor accumulates verdicts and the distinct theorem cells.
type auditor struct {
	st       *ledger.Store
	opts     AuditOptions
	logf     func(string, ...any)
	verdicts []verify.Verdict
	cells    map[string]*verify.Scenario
	cellKeys []string // insertion order, for deterministic reports
	cfg      core.Config
	cfgSet   bool
	seeds    []uint64
	sizes    []int
}

func (a *auditor) add(v verify.Verdict) { a.verdicts = append(a.verdicts, v) }

// failedVerdict builds a violation verdict for a ledger-level check.
func failedVerdict(checker string, session uint64, size int, detail string) verify.Verdict {
	return verify.Verdict{
		Checker:  checker,
		Theorem:  "ledger",
		Seed:     session,
		Size:     size,
		Passed:   false,
		Violated: checker,
		Detail:   detail,
		Margin:   -1,
	}
}

// passedVerdict builds a passing verdict for a ledger-level check.
func passedVerdict(checker string, session uint64, size int, detail string) verify.Verdict {
	return verify.Verdict{
		Checker: checker,
		Theorem: "ledger",
		Seed:    session,
		Size:    size,
		Passed:  true,
		Detail:  detail,
	}
}

// auditSession verifies and replays one session.
func (a *auditor) auditSession(sv *ledger.SessionView) {
	hello := sv.Hello
	issues := a.st.VerifySession(sv.ID)
	for _, is := range issues {
		a.add(failedVerdict("ledger-evidence", sv.ID, hello.Size, is.String()))
	}
	if len(issues) == 0 {
		a.add(passedVerdict("ledger-evidence", sv.ID, hello.Size,
			fmt.Sprintf("hash chain and signatures verified across %d generations", len(sv.Gens))))
	}

	sess := protocol.NewSession(hello.Size, hello.Seed)
	for _, gv := range sv.Gens {
		a.noteCell(gv.Round)
		switch {
		case !gv.Settle.IsZero():
			a.replayGen(sv, sess, gv)
		case !gv.Void.IsZero():
			a.add(passedVerdict("ledger-void", sv.ID, hello.Size,
				fmt.Sprintf("gen %d voided with evidence sealed", gv.Gen)))
		default:
			if a.opts.Strict {
				a.add(failedVerdict("ledger-open-round", sv.ID, hello.Size,
					fmt.Sprintf("gen %d has no settle or void record (daemon never recovered over this log)", gv.Gen)))
			} else {
				a.add(passedVerdict("ledger-open-round", sv.ID, hello.Size,
					fmt.Sprintf("gen %d open (non-strict: tolerated as the interrupted tail)", gv.Gen)))
			}
		}
	}
}

// replayGen re-runs one settled generation and bit-compares the outcome.
func (a *auditor) replayGen(sv *ledger.SessionView, sess *protocol.Session, gv *ledger.GenView) {
	hello := sv.Hello
	v := verify.Verdict{
		Checker: "ledger-replay",
		Theorem: "ledger",
		Seed:    gv.Round.Seed,
		Size:    hello.Size,
		Passed:  true,
		Detail:  fmt.Sprintf("session %d gen %d seq %d", sv.ID, gv.Gen, gv.Round.Seq),
	}
	failf := func(format string, args ...any) {
		v.Passed = false
		v.Violated = "replay-divergence"
		v.Detail += ": " + fmt.Sprintf(format, args...)
		v.Margin = -1
		a.add(v)
	}
	params, err := RoundParams(hello.Size, gv.Round)
	if err != nil {
		failf("stored round not admissible: %v", err)
		return
	}
	if !gv.Legacy {
		params.Gen = gv.Gen
	}
	rec, err := a.st.Get(gv.Settle)
	if err != nil {
		failf("settle record: %v", err)
		return
	}
	res, err := replaySettled(sess, params, gv.Round.Seq, rec.Payload)
	if err != nil {
		failf("%v", err)
		return
	}
	switch {
	case !gv.Journal.IsZero():
		jr, err := a.st.Get(gv.Journal)
		if err != nil {
			failf("journal record: %v", err)
			return
		}
		if replayed := wire.AppendJournal(nil, JournalToWire(res)); !bytes.Equal(replayed, jr.Payload) {
			failf("replayed journal diverges from the journal on disk (%d vs %d bytes)", len(replayed), len(jr.Payload))
			return
		}
	case !gv.Legacy:
		failf("settle record has no journal artifact")
		return
	}
	a.add(v)
}

// noteCell folds one round into the distinct theorem-cell set and the
// report matrix.
func (a *auditor) noteCell(rq wire.Round) {
	cfg := core.Config{Fine: rq.Fine, AuditProb: rq.AuditProb, SolutionBonus: rq.SolutionBonus}
	if !a.cfgSet {
		a.cfg, a.cfgSet = cfg, true
	}
	key := fmt.Sprintf("%x|%x|%d|%v|%v|%v|%v", rq.W, rq.Z, rq.Seed, rq.Fine, rq.AuditProb, rq.SolutionBonus, rq.LambdaUnit)
	if _, ok := a.cells[key]; ok {
		return
	}
	net := &dlt.Network{
		W: append([]float64(nil), rq.W...),
		Z: append([]float64(nil), rq.Z...),
	}
	if err := net.Validate(); err != nil {
		// Unreachable for rounds the daemon admitted; recorded defensively.
		a.add(failedVerdict("ledger-cell", rq.Seed, len(rq.W), fmt.Sprintf("stored network invalid: %v", err)))
		return
	}
	a.cells[key] = &verify.Scenario{Net: net, Cfg: cfg, Seed: rq.Seed, LambdaUnit: rq.LambdaUnit}
	a.cellKeys = append(a.cellKeys, key)
	if !containsU64(a.seeds, rq.Seed) {
		a.seeds = append(a.seeds, rq.Seed)
	}
	if !containsInt(a.sizes, net.Size()) {
		a.sizes = append(a.sizes, net.Size())
	}
}

// theoremSweep replays the theorem checkers over every distinct cell.
func (a *auditor) theoremSweep() {
	sort.Slice(a.seeds, func(i, j int) bool { return a.seeds[i] < a.seeds[j] })
	sort.Ints(a.sizes)
	limit := len(a.cellKeys)
	if a.opts.MaxTheoremCells > 0 && a.opts.MaxTheoremCells < limit {
		limit = a.opts.MaxTheoremCells
	}
	for i, key := range a.cellKeys {
		sc := a.cells[key]
		if i >= limit {
			a.add(verify.Verdict{
				Checker: "theorem-skipped", Theorem: "ledger", Seed: sc.Seed,
				Size: sc.Net.Size(), Passed: true, Margin: 0,
				Detail: fmt.Sprintf("cell beyond -max-cells %d: theorems not replayed", a.opts.MaxTheoremCells),
			})
			continue
		}
		a.logf("theorem cell %d/%d: m=%d seed=%d", i+1, limit, sc.Net.Size(), sc.Seed)
		a.add(verify.CheckTheorem21(sc))
		for _, v := range verify.CheckTheorem51(sc) {
			a.add(v)
		}
		a.add(verify.CheckTheorem52(sc))
		a.add(verify.CheckTheorem53(sc))
		a.add(verify.CheckTheorem54(sc))
	}
	// Normalize non-finite margins for the JSON schema.
	for i := range a.verdicts {
		if math.IsInf(a.verdicts[i].Margin, 0) || math.IsNaN(a.verdicts[i].Margin) {
			a.verdicts[i].Margin = math.MaxFloat64
		}
	}
}

func containsU64(xs []uint64, x uint64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
