// Command dlsload is a closed-loop load generator for the mechanism
// daemon: it opens many concurrent sessions against a dlsd instance,
// drives rounds through each at a target aggregate rate, and reports
// throughput and latency quantiles.
//
// Usage:
//
//	dlsload -addr 127.0.0.1:4774 -conns 256 -m 64 -duration 10s
//	dlsload -addr 127.0.0.1:4774 -conns 64 -rps 200 -rounds 50 -json
//
// Closed-loop means each connection waits for its round result before
// issuing the next request, so the generator never outruns the daemon;
// -rps adds pacing on top (each connection spaces its requests by
// conns/rps so the fleet approximates the aggregate target).
//
// Backlog mode (-stream N) switches each request from a single round to a
// pipelined stream of N loads at -depth, the shape served by dlsd's Stream
// frame; latency quantiles then measure the inter-settle interval — the
// pipeline's observed steady-state period:
//
//	dlsload -addr 127.0.0.1:4774 -conns 4 -m 64 -stream 256 -depth 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dlsmech/internal/core"
	"dlsmech/internal/obs"
	"dlsmech/internal/server"
	"dlsmech/internal/wire"
	"dlsmech/internal/workload"
	"dlsmech/internal/xrand"
)

// latBuckets spans 100µs to 10s, dense enough for sub-millisecond p99
// interpolation on warm rounds.
var latBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type summary struct {
	Conns      int     `json:"conns"`
	Tenants    int     `json:"tenants"`
	M          int     `json:"m"`
	Streams    int64   `json:"streams,omitempty"`
	Depth      int     `json:"depth,omitempty"`
	Rounds     int64   `json:"rounds"`
	Errors     int64   `json:"errors"`
	Incomplete int64   `json:"incomplete"`
	PooledAcks int64   `json:"pooled_acks"`
	Seconds    float64 `json:"seconds"`
	RoundsSec  float64 `json:"rounds_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MeanMs     float64 `json:"mean_ms"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlsload: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:4774", "dlsd address")
		tenant   = flag.String("tenant", "load", "tenant name prefix")
		tenants  = flag.Int("tenants", 4, "distinct tenants to spread sessions across")
		conns    = flag.Int("conns", 64, "concurrent connections (one session each)")
		m        = flag.Int("m", 64, "strategic processors per session")
		rounds   = flag.Int("rounds", 0, "rounds (or streams, with -stream) per connection (0 = until -duration)")
		stream   = flag.Int("stream", 0, "backlog mode: loads per pipelined stream request (0 = sequential rounds)")
		depth    = flag.Int("depth", 4, "pipeline depth requested per stream (with -stream)")
		rps      = flag.Float64("rps", 0, "target aggregate rounds/sec (0 = unpaced)")
		duration = flag.Duration("duration", 10*time.Second, "run length when -rounds is 0")
		seed     = flag.Uint64("seed", 1, "base seed for networks, keys and rounds")
		timeout  = flag.Duration("timeout", time.Minute, "per-round client timeout")
		jsonOut  = flag.Bool("json", false, "emit the summary as JSON")
		// Detector parameters ship with every round; the defaults are the
		// fast-suite profile, whose worst-case budget passes dlsd's default
		// admission cap even at m=64. Fault-free rounds never sit on these
		// timers, so they only matter under scheduler starvation.
		rTimeout = flag.Duration("round-timeout", 25*time.Millisecond, "detector base timeout shipped with each round")
		rRetries = flag.Int("round-retries", 1, "detector retransmissions shipped with each round")
		rBackoff = flag.Float64("round-backoff", 1.5, "detector backoff shipped with each round")
	)
	flag.Parse()
	if *rounds == 0 && *duration <= 0 {
		log.Fatal("need -rounds or a positive -duration")
	}

	netw := workload.Chain(xrand.New(*seed), workload.DefaultChainSpec(*m))
	cfg := core.DefaultConfig()
	reg := obs.NewRegistry()
	lat := reg.Histogram("dlsload_round_seconds", latBuckets)

	var interval time.Duration
	if *rps > 0 {
		interval = time.Duration(float64(*conns) / *rps * float64(time.Second))
	}
	deadline := time.Now().Add(*duration)

	var done, errs, incomplete, pooled, streams atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hello := wire.Hello{
				Tenant: fmt.Sprintf("%s-%d", *tenant, i%*tenants),
				Size:   netw.Size(),
				Seed:   *seed + uint64(i),
			}
			c, err := server.Dial(*addr, hello)
			if err != nil {
				log.Printf("conn %d: %v", i, err)
				errs.Add(1)
				return
			}
			defer c.Close()
			c.Timeout = *timeout
			if c.Ack().Pooled {
				pooled.Add(1)
			}

			next := time.Now()
			for r := 0; ; r++ {
				if *rounds > 0 && r >= *rounds {
					return
				}
				if *rounds == 0 && !time.Now().Before(deadline) {
					return
				}
				if interval > 0 {
					if wait := time.Until(next); wait > 0 {
						time.Sleep(wait)
					}
					next = next.Add(interval)
				}
				rq := wire.Round{
					Seq:       uint64(r + 1),
					Seed:      *seed + uint64(i*1_000_000+r),
					W:         netw.W,
					Z:         netw.Z,
					Fine:      cfg.Fine,
					AuditProb: cfg.AuditProb,
					TimeoutNs: int64(*rTimeout),
					Retries:   *rRetries,
					Backoff:   *rBackoff,
				}
				if *stream > 0 {
					// Backlog mode: one pipelined stream per iteration; the
					// histogram records inter-settle intervals, the pipeline's
					// observed period (first load measures from submission).
					rq.Seq = uint64(r*(*stream) + 1)
					rq.Seed = *seed + uint64(i*1_000_000+r*(*stream))
					sq := wire.Stream{
						Count:      uint32(*stream),
						Depth:      uint32(*depth),
						SeedStride: 1,
						Round:      rq,
					}
					prev := time.Now()
					se, err := c.Stream(sq, func(rr wire.RoundResult) error {
						now := time.Now()
						lat.Observe(now.Sub(prev).Seconds())
						prev = now
						done.Add(1)
						if !rr.Completed || !rr.NetZero {
							log.Printf("conn %d load %d: completed=%v netZero=%v", i, rr.Seq, rr.Completed, rr.NetZero)
							incomplete.Add(1)
						}
						return nil
					})
					if err != nil {
						log.Printf("conn %d stream %d: %v", i, r, err)
						errs.Add(1)
						if _, ok := server.IsServerError(err); ok {
							continue // load failed but the stream ended cleanly
						}
						return // mid-stream transport failure: the conn is unusable
					}
					if se.Code != server.StreamOK {
						log.Printf("conn %d stream %d: ended %q after %d loads: %s", i, r, se.Code, se.Served, se.Msg)
						errs.Add(1)
						if se.Code == server.StreamDraining {
							return
						}
					}
					streams.Add(1)
					continue
				}
				t0 := time.Now()
				rr, err := c.Round(rq)
				if err != nil {
					log.Printf("conn %d round %d: %v", i, r, err)
					errs.Add(1)
					if _, ok := server.IsServerError(err); ok {
						continue // typed refusal; the connection is still good
					}
					return
				}
				lat.Observe(time.Since(t0).Seconds())
				done.Add(1)
				if !rr.Completed || !rr.NetZero {
					log.Printf("conn %d round %d: completed=%v netZero=%v", i, r, rr.Completed, rr.NetZero)
					incomplete.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	hs := reg.Snapshot().Histograms["dlsload_round_seconds"]
	sum := summary{
		Conns:      *conns,
		Tenants:    *tenants,
		M:          *m,
		Streams:    streams.Load(),
		Rounds:     done.Load(),
		Errors:     errs.Load(),
		Incomplete: incomplete.Load(),
		PooledAcks: pooled.Load(),
		Seconds:    elapsed.Seconds(),
		RoundsSec:  float64(done.Load()) / elapsed.Seconds(),
		P50Ms:      hs.Quantile(0.50) * 1e3,
		P90Ms:      hs.Quantile(0.90) * 1e3,
		P99Ms:      hs.Quantile(0.99) * 1e3,
	}
	if *stream > 0 {
		sum.Depth = *depth
	}
	if hs.Count > 0 {
		sum.MeanMs = hs.Sum / float64(hs.Count) * 1e3
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			log.Fatal(err)
		}
	} else if sum.Depth > 0 {
		fmt.Printf("%d conns × m=%d, %d streams at depth %d: %d loads in %.2fs = %.1f loads/sec (%d errors, %d incomplete, %d warm acks)\n",
			sum.Conns, sum.M, sum.Streams, sum.Depth, sum.Rounds, sum.Seconds, sum.RoundsSec, sum.Errors, sum.Incomplete, sum.PooledAcks)
		fmt.Printf("inter-settle: p50 %.2fms  p90 %.2fms  p99 %.2fms  mean %.2fms\n",
			sum.P50Ms, sum.P90Ms, sum.P99Ms, sum.MeanMs)
	} else {
		fmt.Printf("%d conns × m=%d: %d rounds in %.2fs = %.1f rounds/sec (%d errors, %d incomplete, %d warm acks)\n",
			sum.Conns, sum.M, sum.Rounds, sum.Seconds, sum.RoundsSec, sum.Errors, sum.Incomplete, sum.PooledAcks)
		fmt.Printf("latency: p50 %.2fms  p90 %.2fms  p99 %.2fms  mean %.2fms\n",
			sum.P50Ms, sum.P90Ms, sum.P99Ms, sum.MeanMs)
	}
	if sum.Errors > 0 || sum.Incomplete > 0 {
		os.Exit(1)
	}
}
