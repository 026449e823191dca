package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dlsmech/internal/server"
)

// env is one invocation's settings.
type env struct {
	out, bin string // scratch/output directory and built binaries
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
}

// outcome is one workload run: every metric it measured, by name, plus the
// failure accounting and notes for the human-readable report.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.notes = append(o.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

const (
	setupReps   = 5 // set-ups per run; setup_s is their median
	pooledReps  = 5 // timed reconnects answered from the session pool
	smokeScale  = 0.02
	smokeReplay = 50 // the smoke replay serves 1/smokeReplay of the requests
)

// Series the final scrape must show at zero.
var mustBeZero = []string{
	"dlsd_wire_decode_error_total",
	"dlsd_session_leak_total",
	"dlsd_ledger_conservation_failures_total",
	"dlsd_rounds_failed_total",
	"dlsd_ledger_round_failures_total",
}

// runWorkload runs one workload: set-up (several times), the measured
// phase with tracing off, a SIGTERM drain, a restart over the same ledger,
// the in-process re-run of sampled results, and with tracing on the replay.
func runWorkload(e *env, w workload) (*outcome, error) {
	scale, reps, replayN := 1.0, setupReps, w.replay
	if e.smoke {
		scale, reps, replayN = smokeScale, 1, max(conns, w.replay/smokeReplay)
	}
	p := newPlan(w, e.seed, e.seconds, scale)
	work, err := os.MkdirTemp(e.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	ledgerDir := func(i int) string {
		if !w.durable {
			return ""
		}
		return filepath.Join(work, fmt.Sprintf("ledger-%d", i))
	}
	dlsd := filepath.Join(e.bin, "dlsd")
	o := &outcome{attempted: len(p.reqs) * w.opsPer(), values: map[string]float64{}}
	v := o.values

	// 1. Set-up, each time on an empty ledger; the last daemon stays up.
	var setupS, coldHello []float64
	var d *daemon
	var clients []*server.Client
	for i := 0; i < reps; i++ {
		dd, cl, took, hellos, err := warmUp(dlsd, ledgerDir(i), p, false, uint64(i*conns))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, took.Seconds())
		coldHello = append(coldHello, hellos...)
		if i == reps-1 {
			d, clients = dd, cl
			break
		}
		closeClients(cl)
		if err := dd.drain(); err != nil {
			return nil, fmt.Errorf("set-up drain: %w", err)
		}
		if err := os.RemoveAll(ledgerDir(i)); err != nil {
			return nil, err
		}
	}
	defer d.cleanup()
	rssWarm, err := procMemKiB(d.pid(), "VmRSS")
	if err != nil {
		return nil, err
	}
	pooledHello, err := reconnect(d, clients, p, pooledReps)
	if err != nil {
		closeClients(clients)
		return nil, err
	}

	// 2. The measured phase, tracing off.
	before, err := d.scrape()
	if err != nil {
		closeClients(clients)
		return nil, err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		closeClients(clients)
		return nil, err
	}
	self0 := selfCPU()
	lv, err := p.drive(clients)
	if err != nil {
		closeClients(clients)
		return nil, err
	}
	self1 := selfCPU()
	cpu1, err := procCPU(d.pid())
	if err != nil {
		closeClients(clients)
		return nil, err
	}
	hwm, err := procMemKiB(d.pid(), "VmHWM")
	if err != nil {
		closeClients(clients)
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		closeClients(clients)
		return nil, err
	}

	// 3. Drain: SIGTERM, and the daemon must exit 0 without leaks.
	if err := d.drain(); err != nil {
		o.fail(1, "%v", err)
	}
	closeClients(clients)
	for _, name := range mustBeZero {
		if x, ok := after[name]; !ok {
			o.notes = append(o.notes, "absent series "+name)
		} else if x != 0 {
			o.fail(int(x), "%s = %g", name, x)
		}
	}

	// 4. Restart over the run's ledger (an empty restart without one).
	var restarts []float64
	for i := 0; i < w.restarts; i++ {
		rd, rclients, took, _, err := warmUp(dlsd, ledgerDir(reps-1), p, w.durable, uint64(1<<20+i*conns))
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		closeClients(rclients)
		if err := rd.drain(); err != nil {
			o.fail(1, "after recovery: %v", err)
		}
		restarts = append(restarts, took.Seconds())
	}
	recovery := median(restarts)

	runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(1)
	t0 := time.Now()
	for _, err := range rerun(lv.samples) {
		o.fail(1, "%v", err)
	}
	o.notes = append(o.notes, fmt.Sprintf("re-ran %d sampled results in process in %.2fs", len(lv.samples), time.Since(t0).Seconds()))
	o.failed += o.attempted - lv.acked
	for _, msg := range lv.errs {
		o.notes = append(o.notes, "FAIL: "+msg)
	}

	acked := float64(lv.acked)
	if acked == 0 {
		return nil, fmt.Errorf("no request was answered: %v", lv.errs)
	}
	lat := summarize(lv.lat)
	per := "requests"
	if w.stream {
		per = "streams"
	}
	o.notes = append(o.notes, fmt.Sprintf("latency_tail_ms is p%g of %d %s; %d ops in %.2fs",
		lat.TailPct, lat.N, per, lv.acked, lv.wall.Seconds()))
	v["throughput_rps"] = acked / lv.wall.Seconds()
	v["latency_mean_ms"] = lat.Mean
	v["gen.latency_p50_ms"] = lat.P50
	v["latency_tail_ms"] = lat.Tail
	v["cpu_ms_per_op"] = ms(cpu1-cpu0) / acked
	v["rss_peak_mib"] = hwm / 1024
	v["setup_s"] = median(setupS)
	v["recovery_s"] = recovery

	delta := func(name string) (float64, bool) {
		x, ok := after[name]
		return x - before[name], ok
	}
	ratio := func(metric string, num, den float64, ok bool) {
		switch {
		case !ok:
			o.notes = append(o.notes, metric+": series absent, reported as 0")
		case den == 0:
			o.notes = append(o.notes, metric+": no events, reported as 0")
		default:
			v[metric] = num / den
			return
		}
		v[metric] = 0
	}
	hits, ok1 := delta("dlsd_compute_plan_cache_hits_total")
	misses, ok2 := delta("dlsd_compute_plan_cache_misses_total")
	ratio("compute.plan_hit_frac", hits, hits+misses, ok1 && ok2)
	sigs, ok1 := delta("dlsd_compute_verify_sigs_coalesced_total")
	batches, ok2 := delta("dlsd_compute_verify_batches_total")
	ratio("compute.verify_occupancy", sigs, batches, ok1 && ok2)
	bySize, ok1 := delta("dlsd_compute_verify_flush_size_total")
	byDeadline, ok2 := delta("dlsd_compute_verify_flush_deadline_total")
	byDrain, ok3 := delta("dlsd_compute_verify_flush_drain_total")
	ratio("compute.deadline_flush_frac", byDeadline, bySize+byDeadline+byDrain, ok1 && ok2 && ok3)
	appends, ok := delta("dlsd_ledger_appends_total")
	ratio("ledger.appends_per_op", appends, acked, ok)
	fsyncs, ok := delta("dlsd_ledger_fsyncs_total")
	ratio("ledger.fsyncs_per_op", fsyncs, acked, ok)
	bytes, ok := delta("dlsd_ledger_append_bytes_total")
	ratio("ledger.evidence_bytes_per_op", bytes, acked, ok)
	v["ledger.recover_ms_per_op"] = recovery * 1e3 / acked
	v["ledger.rss_kib_per_op"] = (hwm - rssWarm) / acked
	v["server.hello_cold_ms"] = median(coldHello)
	v["server.hello_pooled_ms"] = median(pooledHello)
	v["protocol.messages_per_op"] = float64(lv.messages) / acked
	v["protocol.verifications_per_op"] = float64(lv.verifications) / acked
	lags := append([]float64(nil), lv.lag...)
	sort.Float64s(lags)
	v["gen.lag_p99_ms"] = quantile(lags, 0.99)
	v["gen.cpu_frac"] = float64(self1-self0) / float64(lv.wall)

	// 5. The traced replay, after the daemon has exited.
	if e.trace {
		rv, err := p.replay(e, work, replayN, lat.P50)
		if err != nil {
			o.fail(1, "replay: %v", err)
		}
		for k, x := range rv {
			v[k] = x
		}
	}
	return o, nil
}

// warmUp execs dlsd over ledgerDir and makes every connection warm: Hello,
// then one round. It returns the daemon, its clients, the time from exec to
// all connections warm, and each Hello's round-trip in ms.
func warmUp(bin, ledgerDir string, p *plan, wantPooled bool, k uint64) (*daemon, []*server.Client, time.Duration, []float64, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, ledgerDir)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	var clients []*server.Client
	var hellos []float64
	fail := func(err error) (*daemon, []*server.Client, time.Duration, []float64, error) {
		closeClients(clients)
		d.cleanup()
		return nil, nil, 0, nil, err
	}
	for c, h := range p.hellos {
		h0 := time.Now()
		cl, err := server.Dial(d.addr, h)
		if err != nil {
			return fail(fmt.Errorf("dial: %w", err))
		}
		hellos = append(hellos, ms(time.Since(h0)))
		clients = append(clients, cl)
		if cl.Ack().Pooled != wantPooled {
			return fail(fmt.Errorf("hello answered pooled=%v, want %v", cl.Ack().Pooled, wantPooled))
		}
		rq := p.warmRound(c, k+uint64(c))
		rr, err := cl.Round(rq)
		if err == nil {
			err = checkResult(rq, 0, rr)
		}
		if err != nil {
			return fail(fmt.Errorf("warm round: %w", err))
		}
	}
	return d, clients, time.Since(t0), hellos, nil
}

// reconnect times n Hellos the session pool answers warm: it closes
// connection 0, waits until the daemon has checked its session back in,
// and dials again with the same Hello.
func reconnect(d *daemon, clients []*server.Client, p *plan, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		clients[0].Close()
		if err := waitSessions(d, float64(len(clients)-1)); err != nil {
			return nil, err
		}
		t0 := time.Now()
		cl, err := server.Dial(d.addr, p.hellos[0])
		if err != nil {
			return nil, fmt.Errorf("reconnect: %w", err)
		}
		out = append(out, ms(time.Since(t0)))
		clients[0] = cl
		if !cl.Ack().Pooled {
			return nil, fmt.Errorf("reconnect was not answered from the session pool")
		}
	}
	return out, nil
}

// waitSessions polls the scrape until at most active sessions are checked
// out. Without the gauge it can only wait a moment.
func waitSessions(d *daemon, active float64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := d.scrape()
		if err != nil {
			return err
		}
		x, ok := m["dlsd_sessions_active"]
		if !ok {
			time.Sleep(50 * time.Millisecond)
			return nil
		}
		if x <= active {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon still reports %g active sessions after 10s", x)
		}
		time.Sleep(time.Millisecond)
	}
}

func closeClients(cs []*server.Client) {
	for _, c := range cs {
		c.Close()
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
