package server_test

import (
	"bytes"
	"runtime/debug"
	"strings"
	"testing"

	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/wire"
)

// TestMetricsExportProcessorWorkers: the scrape carries the process's
// processor-goroutine start count, and warm rounds on one connection reuse
// parked workers, so the count stays flat. The test is sequential because
// the count is process-wide.
func TestMetricsExportProcessorWorkers(t *testing.T) {
	h := servertest.Start(t, server.Config{})
	net := servertest.ChainNet(8, 42)
	c := h.Dial(t, wire.Hello{Tenant: "acme", Size: net.Size(), Seed: 7})
	round := func(seq uint64) {
		t.Helper()
		if _, err := c.Round(servertest.RoundFor(net, seq, 99)); err != nil {
			t.Fatalf("round %d: %v", seq, err)
		}
	}
	started := func() int64 { return h.Registry.Snapshot().Counters[server.MetricWorkersStarted] }

	round(1)
	before := started()
	if before < int64(net.Size()) {
		t.Fatalf("%s = %d after a round of %d processors", server.MetricWorkersStarted, before, net.Size())
	}
	// Idle workers are dropped after two GC cycles by design; keep the
	// collector out of the measured rounds so the count is exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for seq := uint64(2); seq <= 50; seq++ {
		round(seq)
	}
	if after := started(); after != before {
		t.Fatalf("49 warm rounds started %d workers, want 0", after-before)
	}

	var buf bytes.Buffer
	if err := h.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE "+server.MetricWorkersStarted+" counter\n") {
		t.Fatalf("scrape has no %s counter:\n%s", server.MetricWorkersStarted, buf.String())
	}
}
