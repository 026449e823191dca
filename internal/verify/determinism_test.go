package verify

import (
	"testing"
	"time"

	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/protocol"
)

// TestCatalogRoundsDeterministic pins the determinism contract across the
// whole strategy catalog: two rounds at equal seeds must settle identically
// — the same completion, termination reason, detections (named deviant,
// violation, fine), retained loads and utilities — however the processor
// goroutines happen to be scheduled. Settlement is a function of signed
// messages and seeds only; every bit-identity suite, crash replay and audit
// re-execution rests on it.
func TestCatalogRoundsDeterministic(t *testing.T) {
	t.Parallel()
	net, err := dlt.NewNetwork(
		[]float64{1, 1.6, 1.2, 2.0, 1.4, 1.1},
		[]float64{0.2, 0.15, 0.1, 0.25, 0.12},
	)
	if err != nil {
		t.Fatal(err)
	}
	size := net.Size()
	m := net.M()
	cfgBase := core.DefaultConfig()
	rec := protocol.RecoveryConfig{Timeout: 25 * time.Millisecond, Retries: 1, Backoff: 2}

	for _, s := range Catalog() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			pos := deviantPos(m, s.NeedsSuccessor)
			if pos < 0 {
				t.Skip("needs an interior deviant")
			}
			cfg := cfgBase
			if s.Expect.NeedsCertainAudit {
				cfg.AuditProb = 1
			}
			run := func() *protocol.Result {
				p := protocol.Params{
					Net:      net,
					Profile:  agent.AllTruthful(size).WithDeviant(pos, s.Behavior),
					Cfg:      cfg,
					Seed:     41,
					Recovery: rec,
				}
				if s.Inject != nil {
					// Injectors hold mutable rule budgets (Times: 1 burns out);
					// each run gets a fresh one or the second sees no fault.
					p.Inject = s.Inject(p.Seed, pos)
				}
				res, err := protocol.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()

			if a.Completed != b.Completed {
				t.Fatalf("completion differs: %v vs %v", a.Completed, b.Completed)
			}
			if a.TermReason != b.TermReason {
				t.Fatalf("termination reason differs:\n  first:  %q\n  second: %q", a.TermReason, b.TermReason)
			}
			if len(a.Detections) != len(b.Detections) {
				t.Fatalf("detection count differs: %+v vs %+v", a.Detections, b.Detections)
			}
			for i := range a.Detections {
				if a.Detections[i] != b.Detections[i] {
					t.Fatalf("detection %d differs (named deviant must be identical):\n  first:  %+v\n  second: %+v",
						i, a.Detections[i], b.Detections[i])
				}
			}
			for i := range a.Retained {
				if a.Retained[i] != b.Retained[i] {
					t.Fatalf("retained_%d differs: %v vs %v", i, a.Retained[i], b.Retained[i])
				}
			}
			for i := range a.Utilities {
				if a.Utilities[i] != b.Utilities[i] {
					t.Fatalf("U_%d differs: %v vs %v", i, a.Utilities[i], b.Utilities[i])
				}
			}
		})
	}
}
