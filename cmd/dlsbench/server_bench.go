package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlsmech/internal/obs"
	"dlsmech/internal/server"
	"dlsmech/internal/wire"
)

// serverBenchResult is the loopback daemon benchmark: many concurrent
// closed-loop sessions drive truthful rounds through a real dlsd instance
// over TCP, and the latency distribution comes from an obs histogram.
type serverBenchResult struct {
	Conns        int     `json:"conns"`
	M            int     `json:"m"`
	Rounds       int64   `json:"rounds"`
	Seconds      float64 `json:"seconds"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P90Ms        float64 `json:"p90_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MeanMs       float64 `json:"mean_ms"`
}

// benchRoundSlots caps concurrently executing rounds in the benchmark
// daemon. Each round runs m+1 goroutines; past a few concurrent rounds a
// small machine loses more to scheduler churn than it gains in overlap,
// and tail latency balloons. Four slots is the sweet spot measured on a
// single-CPU runner (above ~550 rounds/sec at m=64 with 256 sessions).
const benchRoundSlots = 4

// serverLatencyBuckets spans 100µs to 10s, matching the daemon's own
// round-latency bucketing.
var serverLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// serverBenchmark boots a daemon on a loopback port, connects conns
// sessions of m strategic processors each, runs one untimed warmup round
// per session (provisioning and pool warmup stay out of the measurement),
// then drives closed-loop rounds for the window and reports aggregate
// throughput plus latency quantiles.
func serverBenchmark(seed uint64, conns, m int, window time.Duration) (*serverBenchResult, error) {
	s, err := server.Listen(server.Config{
		MaxConns:    conns + 16,
		MaxSessions: conns + 16,
		// Generous detector budgets let rounds ride out scheduler starvation
		// while hundreds of sessions share the CPU; fault-free rounds never
		// actually sit on these timers.
		MaxDetectorWait:     10 * time.Minute,
		MaxConcurrentRounds: benchRoundSlots,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	addr := s.Addr().String()

	netw := chain(seed, m)
	reg := obs.NewRegistry()
	lat := reg.Histogram("server_round_seconds", serverLatencyBuckets)

	clients := make([]*server.Client, conns)
	var dialErr error
	var dialMu sync.Mutex
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := server.Dial(addr, wire.Hello{
				Tenant: fmt.Sprintf("bench-%d", i%8),
				Size:   netw.Size(),
				Seed:   seed + uint64(i),
			})
			if err != nil {
				dialMu.Lock()
				if dialErr == nil {
					dialErr = fmt.Errorf("server bench: dial %d: %w", i, err)
				}
				dialMu.Unlock()
				return
			}
			c.Timeout = 5 * time.Minute
			clients[i] = c
		}(i)
	}
	wg.Wait()
	if dialErr != nil {
		return nil, dialErr
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	roundReq := func(conn int, seq uint64) wire.Round {
		rq := wire.Round{
			Seq: seq, Seed: seed + uint64(conn)*1_000_000 + seq,
			W: netw.W, Z: netw.Z,
			Fine: 10, AuditProb: 0.25,
			TimeoutNs: int64(250 * time.Millisecond), Retries: 2, Backoff: 2,
		}
		return rq
	}

	var rounds atomic.Int64
	var runMu sync.Mutex
	var runErr error
	fail := func(err error) {
		runMu.Lock()
		if runErr == nil {
			runErr = err
		}
		runMu.Unlock()
	}
	var start time.Time
	var warmWg sync.WaitGroup
	barrier := make(chan struct{})
	for i, c := range clients {
		wg.Add(1)
		warmWg.Add(1)
		go func(i int, c *server.Client) {
			defer wg.Done()
			rr, err := c.Round(roundReq(i, 1))
			warmWg.Done()
			if err != nil || !rr.Completed {
				fail(fmt.Errorf("server bench: warmup %d: completed=%v err=%v", i, err == nil, err))
				<-barrier
				return
			}
			<-barrier
			for seq := uint64(2); ; seq++ {
				if time.Since(start) >= window {
					return
				}
				t0 := time.Now()
				rr, err := c.Round(roundReq(i, seq))
				if err != nil || !rr.Completed || !rr.NetZero {
					fail(fmt.Errorf("server bench: conn %d seq %d: err=%v", i, seq, err))
					return
				}
				lat.Observe(time.Since(t0).Seconds())
				rounds.Add(1)
			}
		}(i, c)
	}
	warmWg.Wait()
	start = time.Now()
	close(barrier)
	wg.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return nil, runErr
	}

	hs := reg.Snapshot().Histograms["server_round_seconds"]
	res := &serverBenchResult{
		Conns:        conns,
		M:            m,
		Rounds:       rounds.Load(),
		Seconds:      elapsed.Seconds(),
		RoundsPerSec: float64(rounds.Load()) / elapsed.Seconds(),
		P50Ms:        hs.Quantile(0.50) * 1e3,
		P90Ms:        hs.Quantile(0.90) * 1e3,
		P99Ms:        hs.Quantile(0.99) * 1e3,
	}
	if hs.Count > 0 {
		res.MeanMs = hs.Sum / float64(hs.Count) * 1e3
	}
	return res, nil
}
