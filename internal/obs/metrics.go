package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic count. The zero value is
// usable; counters handed out by a Registry are additionally snapshotted.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the Prometheus contract; this is not
// enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated instantaneous value.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram: Observe(v) increments
// every bucket whose upper bound is >= v, Prometheus-style. Buckets are set
// at registration and never change, so observation is lock-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	sum    Gauge
	n      atomic.Int64
}

// Observe records one value. Values above every bound land only in the
// implicit +Inf bucket (whose cumulative count is always Count).
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefBuckets is the default histogram bucketing: exponential from 1ms-ish
// quantities up, suitable for both durations in seconds and money amounts.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100}

// Registry names and snapshots a set of metrics. Registration takes a lock;
// updates through the returned handles are lock-free. Names follow the
// Prometheus convention (snake_case, *_total for counters) and may carry a
// single fixed label baked in at registration ({phase="bid"} style).
type Registry struct {
	mu           sync.Mutex
	counters     map[string]*Counter
	counterFuncs map[string]func() int64
	gauges       map[string]*Gauge
	histograms   map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     make(map[string]*Counter),
		counterFuncs: make(map[string]func() int64),
		gauges:       make(map[string]*Gauge),
		histograms:   make(map[string]*Histogram),
	}
}

// CounterFunc registers a counter whose value is read from f at each
// snapshot, for a count another package already keeps (an atomic it owns).
// It replaces an earlier registration under the same name.
func (r *Registry) CounterFunc(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFuncs[name] = f
}

// Counter returns the counter registered under name, creating it on first
// use. Safe for concurrent callers.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (nil means DefBuckets) on first use. Bounds
// are sorted; later calls with different bounds get the original.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if bounds == nil {
			bounds = DefBuckets
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs))}
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	// Buckets maps each upper bound (formatted with strconv 'g') to the
	// cumulative count of observations <= that bound; "+Inf" is always
	// present and equals Count.
	Buckets map[string]int64 `json:"buckets"`
	Sum     float64          `json:"sum"`
	Count   int64            `json:"count"`
}

// Snapshot is a point-in-time copy of a registry, serializable as JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current values of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)+len(r.counterFuncs)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, f := range r.counterFuncs {
		s.Counters[name] = f()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{Buckets: make(map[string]int64, len(h.bounds)+1), Sum: h.Sum(), Count: h.Count()}
		cum := int64(0)
		for i, ub := range h.bounds {
			cum += h.counts[i].Load()
			hs.Buckets[strconv.FormatFloat(ub, 'g', -1, 64)] = cum
		}
		hs.Buckets["+Inf"] = h.Count()
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// splitName separates a baked-in label block from a metric name:
// "x_total{phase=\"bid\"}" -> ("x_total", "{phase=\"bid\"}").
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric family, series sorted
// by name for stable diffs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()

	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	typed := map[string]bool{}
	for _, n := range names {
		base, _ := splitName(n)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", base); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", n, snap.Counters[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		base, _ := splitName(n)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", base); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", n, formatFloat(snap.Gauges[n])); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		base, labels := splitName(n)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
				return err
			}
		}
		hs := snap.Histograms[n]
		var bounds []string
		for b := range hs.Buckets {
			if b != "+Inf" {
				bounds = append(bounds, b)
			}
		}
		sort.Slice(bounds, func(i, j int) bool {
			x, _ := strconv.ParseFloat(bounds[i], 64)
			y, _ := strconv.ParseFloat(bounds[j], 64)
			return x < y
		})
		bounds = append(bounds, "+Inf")
		for _, b := range bounds {
			series := base + "_bucket{le=\"" + b + "\"}"
			if labels != "" {
				series = base + "_bucket" + labels[:len(labels)-1] + ",le=\"" + b + "\"}"
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", series, hs.Buckets[b]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatFloat(hs.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, hs.Count); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
