// Command dlsd is the mechanism daemon: it serves DLS-LBL rounds to remote
// tenants over TCP (the internal/wire framing), pooling warm protocol
// sessions per (tenant, size, seed) so steady-state rounds skip ed25519
// provisioning entirely.
//
// Usage:
//
//	dlsd -addr :4774 -metrics-addr :9774
//	dlsd -addr 127.0.0.1:0 -max-sessions 512 -read-timeout 10s
//
// The metrics listener serves GET /metrics (Prometheus text format) and
// GET /healthz (200 while serving, 503 once draining). SIGTERM or SIGINT
// starts a graceful drain: the listener closes, in-flight rounds finish
// and deliver their results, then the process exits. A second signal, or
// the drain timeout, severs what remains.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dlsmech/internal/ledger"
	"dlsmech/internal/obs"
	"dlsmech/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlsd: ")
	var (
		addr        = flag.String("addr", "127.0.0.1:4774", "mechanism listen address")
		metricsAddr = flag.String("metrics-addr", "127.0.0.1:9774", "metrics/health listen address (empty disables)")
		maxConns    = flag.Int("max-conns", 0, "max concurrent connections (0 = default)")
		maxSessions = flag.Int("max-sessions", 0, "max live sessions (0 = default)")
		maxSize     = flag.Int("max-session-size", 0, "max session population size (0 = default)")
		maxRounds   = flag.Int("max-rounds", 0, "max concurrently executing rounds (0 = default)")
		readTimeout = flag.Duration("read-timeout", 0, "per-frame read deadline (0 = default)")
		maxDetector = flag.Duration("max-detector-wait", 0, "max worst-case detector budget a round may request (0 = default)")
		maxStreamN  = flag.Int("max-stream-count", 0, "max loads per pipelined stream request (0 = default)")
		maxStreamD  = flag.Int("max-stream-depth", 0, "max pipeline depth a stream may request (0 = default)")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		ledgerDir   = flag.String("ledger-dir", "", "evidence ledger directory (empty disables durable evidence recording)")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	var store *ledger.Store
	if *ledgerDir != "" {
		// Listen opens the ledger: crash recovery verifies each generation
		// as the open's scan reads its close record and applies its journal
		// (a legacy one is replayed), and logs one "recovery:" line with
		// the counts and the time of each stage.
		store = ledger.Defer(*ledgerDir, 0, ledger.NewMetrics(reg, "dlsd"))
		defer store.Close()
		log.Printf("evidence ledger at %s", *ledgerDir)
	}
	s, err := server.Listen(server.Config{
		Addr:                *addr,
		MaxConns:            *maxConns,
		MaxSessions:         *maxSessions,
		MaxSessionSize:      *maxSize,
		MaxConcurrentRounds: *maxRounds,
		ReadTimeout:         *readTimeout,
		MaxDetectorWait:     *maxDetector,
		MaxStreamCount:      *maxStreamN,
		MaxStreamDepth:      *maxStreamD,
		Registry:            reg,
		Ledger:              store,
		Logf:                log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(w)
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			if s.Draining() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte("ok\n"))
		})
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		log.Printf("metrics on http://%s/metrics", mln.Addr())
		go func() {
			if err := http.Serve(mln, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigs
	log.Printf("%v: draining (budget %v; signal again to sever)", sig, *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		<-sigs
		log.Printf("second signal: severing")
		cancel()
	}()
	if err := s.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
}
