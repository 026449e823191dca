package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Fatalf("Counter not idempotent per name")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.5, 1.7, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.5+1.5+1.7+4+100; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	snap := r.Snapshot().Histograms["lat_seconds"]
	wantBuckets := map[string]int64{"1": 1, "2": 3, "5": 4, "+Inf": 5}
	for b, want := range wantBuckets {
		if snap.Buckets[b] != want {
			t.Errorf("bucket %q = %d, want %d (all: %v)", b, snap.Buckets[b], want, snap.Buckets)
		}
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", nil)
	h.Observe(0.02)
	snap := r.Snapshot().Histograms["d"]
	if snap.Buckets["0.05"] != 1 || snap.Buckets["0.01"] != 0 {
		t.Fatalf("default-bucket placement wrong: %v", snap.Buckets)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b").Set(1.25)
	r.Histogram("c", []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if snap.Counters["a_total"] != 3 || snap.Gauges["b"] != 1.25 || snap.Histograms["c"].Count != 1 {
		t.Fatalf("round-tripped snapshot wrong: %+v", snap)
	}
	if err := ValidateMetricsSnapshot(buf.Bytes()); err != nil {
		t.Fatalf("snapshot does not validate against checked-in schema: %v", err)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`dls_messages_total`).Add(7)
	var started int64 = 3
	r.CounterFunc("dls_started_total", func() int64 { return started })
	started = 5 // read at scrape, not at registration
	r.Counter(`dls_phase_starts_total{phase="bid"}`).Add(4)
	r.Counter(`dls_phase_starts_total{phase="load"}`).Add(4)
	r.Gauge("dls_temp").Set(0.5)
	r.Histogram(`dls_phase_duration_seconds{phase="bid"}`, []float64{1, 2}).Observe(1.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dls_messages_total counter\n",
		"dls_messages_total 7\n",
		"# TYPE dls_started_total counter\n",
		"dls_started_total 5\n",
		"# TYPE dls_phase_starts_total counter\n",
		`dls_phase_starts_total{phase="bid"} 4` + "\n",
		"# TYPE dls_temp gauge\n",
		"dls_temp 0.5\n",
		"# TYPE dls_phase_duration_seconds histogram\n",
		`dls_phase_duration_seconds_bucket{phase="bid",le="1"} 0` + "\n",
		`dls_phase_duration_seconds_bucket{phase="bid",le="2"} 1` + "\n",
		`dls_phase_duration_seconds_bucket{phase="bid",le="+Inf"} 1` + "\n",
		`dls_phase_duration_seconds_sum{phase="bid"} 1.5` + "\n",
		`dls_phase_duration_seconds_count{phase="bid"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q;\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE dls_phase_starts_total") != 1 {
		t.Errorf("family # TYPE line emitted more than once:\n%s", out)
	}
}
