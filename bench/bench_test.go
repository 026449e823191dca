package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dlsmech/internal/protocol"
	"dlsmech/internal/wire"
	"dlsmech/internal/xrand"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {13000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestSummarizeIsExact(t *testing.T) {
	// 1..1000 ms: the median interpolates between 500 and 501, and with
	// 1,000 samples the tail is p99, between the 990th and 991st values.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500.5 || s.TailPct != 99 || math.Abs(s.Tail-990.01) > 1e-9 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500.5 p99=990.01", s)
	}
	// The trimmed mean drops 50 samples from each end: mean of 51..950.
	if s.Mean != 500.5 {
		t.Fatalf("trimmed mean %v, want 500.5", s.Mean)
	}
	// One wild sample moves the mean of the rest not at all once trimmed.
	ys := append([]float64(nil), xs...)
	ys[0] = 1e9
	if got := summarize(ys).Mean; got != 500.5 {
		t.Fatalf("trimmed mean with an outlier %v, want 500.5", got)
	}
}

// The reference values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1.5, 2.5, 10, 4}, [3]float64{1.75, 3.25, 8.5}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(xrand.New(5), 20000, 45)
	b := poissonSchedule(xrand.New(5), 20000, 45)
	c := poissonSchedule(xrand.New(6), 20000, 45)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	// The mean gap of 20,000 exponential draws is within 3% of 1/rate.
	mean := a[len(a)-1].Seconds() / float64(len(a))
	if want := 1.0 / 45; math.Abs(mean-want) > 0.03*want {
		t.Fatalf("mean inter-arrival %.5fs, want %.5fs", mean, want)
	}
}

func TestOpenTimingCountsFromDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct {
		name                  string
		due, free, sent, done int
		latency, lag          int
	}{
		// A free connection waits for the due time; sending 1ms after it
		// is generator lag, and latency includes it.
		{"idle", 10, 0, 11, 15, 5, 1},
		// Both connections were busy until 30: the 20ms wait for one is
		// queueing the system caused, counted in latency but not as lag.
		{"queued", 10, 30, 30, 34, 24, 0},
		{"queued and late", 10, 30, 32, 40, 30, 2},
	} {
		lat, lag := openTiming(at(c.due), at(c.free), at(c.sent), at(c.done))
		if lat != time.Duration(c.latency)*time.Millisecond || lag != time.Duration(c.lag)*time.Millisecond {
			t.Errorf("%s: latency %v lag %v, want %dms %dms", c.name, lat, lag, c.latency, c.lag)
		}
	}
}

func TestTimerFDSleepsAtLeastTheDuration(t *testing.T) {
	tfd, err := newTimerFD()
	if err != nil {
		t.Fatal(err)
	}
	defer tfd.Close()
	for _, d := range []time.Duration{0, 200 * time.Microsecond, 3 * time.Millisecond} {
		t0 := time.Now()
		if err := tfd.sleep(d); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(t0); got < d {
			t.Fatalf("sleep(%v) returned after %v", d, got)
		}
	}
}

func TestPlanIsSeededWithOneDeviantPerBlock(t *testing.T) {
	w, err := findWorkload("open-m8-durable-fresh")
	if err != nil {
		t.Fatal(err)
	}
	a, b := newPlan(w, 3, 10, 1), newPlan(w, 3, 10, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different plans")
	}
	if n := len(a.reqs); n != int(w.perSecond*10) {
		t.Fatalf("%d requests, want %v", n, w.perSecond*10)
	}
	for blk := 0; blk < len(a.reqs); blk += w.deviantEvery {
		count := 0
		for i := blk; i < blk+w.deviantEvery && i < len(a.reqs); i++ {
			rq := a.reqs[i]
			if rq.deviant == 0 {
				continue
			}
			count++
			if rq.deviant < 1 || rq.deviant >= w.m {
				t.Fatalf("request %d: shedder at P%d, want within [1,%d]", i, rq.deviant, w.m-1)
			}
			if want := []wire.Deviant{{Pos: rq.deviant, Spec: shedderSpec}}; !reflect.DeepEqual(rq.round.Deviants, want) {
				t.Fatalf("request %d carries %v, want %v", i, rq.round.Deviants, want)
			}
		}
		if full := blk+w.deviantEvery <= len(a.reqs); full && count != 1 {
			t.Fatalf("block at %d has %d deviants, want 1", blk, count)
		}
	}
	if reflect.DeepEqual(a.reqs[0].round.W, a.reqs[1].round.W) {
		t.Fatal("fresh-network workload repeated a network")
	}
}

func TestCheckResult(t *testing.T) {
	rq := wire.Round{Seq: 7}
	ok := wire.RoundResult{Seq: 7, Completed: true, NetZero: true}
	shed := ok
	shed.Detections = []wire.DetectionRec{{Violation: string(protocol.ViolationOverload), Offender: 3}}
	for _, c := range []struct {
		name    string
		rr      wire.RoundResult
		deviant int
		wantErr bool
	}{
		{"truthful", ok, 0, false},
		{"shedder caught", shed, 3, false},
		{"wrong seq", wire.RoundResult{Seq: 8, Completed: true, NetZero: true}, 0, true},
		{"incomplete", wire.RoundResult{Seq: 7, NetZero: true}, 0, true},
		{"money lost", wire.RoundResult{Seq: 7, Completed: true}, 0, true},
		{"truthful but fined", shed, 0, true},
		{"shedder missed", ok, 3, true},
		{"wrong offender", shed, 2, true},
	} {
		if err := checkResult(rq, c.deviant, c.rr); (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
	}
}

func TestAgreement(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{101, 100, 99, 100, 102, 100}, verdictOK},
		{"shifted past the bound", []float64{120, 121, 119, 120, 122, 118}, verdictDisagree},
		{"too noisy to tell", []float64{60, 140, 100, 80, 120, 100}, verdictUnresolved},
	} {
		if got, _ := agreement(base, c.b, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
