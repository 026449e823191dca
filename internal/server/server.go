// Package server is the mechanism daemon: a long-lived TCP service that
// runs DLS-LBL rounds on behalf of remote tenants. A client opens a
// session with a wire.Hello (tenant, population size, key seed), then
// drives any number of wire.Round requests through it; the daemon answers
// each with a wire.RoundResult carrying the economically meaningful slice
// of protocol.Result.
//
// The daemon's value proposition is the protocol.Session fast path: keys,
// PKI memos, signature memos and every pooled round buffer persist across
// rounds, so a steady-state served round costs arithmetic plus syscalls
// rather than ed25519 setup. Sessions are pooled per (tenant, size, seed)
// and checked out exclusively by one connection at a time — a Session is
// not safe for concurrent Runs, and the pool is what enforces that.
//
// Determinism survives the network hop: a session created from (size,
// seed) reproduces exactly what protocol.Run would produce with
// Params.Seed equal to the round's seed, so the loopback harness asserts
// socket-served results bit-identical to in-process runs, and replays the
// verify theorem checkers (2.1, 5.1-5.4) against the same scenarios.
//
// Admission control is layered: a connection cap at accept time, a session
// cap at Hello time, and a round-concurrency cap at Round time (each round
// spawns size goroutines; the cap keeps a burst of tenants from launching
// tens of thousands). Overload answers are typed SrvError frames, never
// silent drops. Per-frame read deadlines bound slow-loris peers, and
// malformed frames close the connection after counting
// dlsd_wire_decode_error_total.
//
// Shutdown drains: the listener closes, idle connections are nudged off
// their blocking reads, in-flight rounds finish and their results are
// written before the connections close.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dlsmech/internal/ledger"
	"dlsmech/internal/obs"
)

// Config tunes the daemon. The zero value listens on a random loopback
// port with sane bounds.
type Config struct {
	// Addr is the listen address; "" means "127.0.0.1:0".
	Addr string
	// MaxConns bounds concurrently served connections; beyond it, new
	// connections get SrvError{Code:"overloaded"} and are closed.
	// 0 means 1024.
	MaxConns int
	// MaxSessions bounds live protocol sessions (pooled + checked out).
	// A Hello that would exceed it is refused. 0 means 2048.
	MaxSessions int
	// MaxSessionSize bounds the population size a Hello may request.
	// 0 means 512.
	MaxSessionSize int
	// MaxConcurrentRounds bounds simultaneously executing rounds (each
	// round runs size goroutines). A pipelined stream counts as ONE round
	// for this bound regardless of its load count. 0 means 8.
	MaxConcurrentRounds int
	// MaxStreamCount bounds the loads one stream request may carry.
	// 0 means 65536.
	MaxStreamCount int
	// MaxStreamDepth bounds the pipeline depth a stream may request (each
	// unit of depth holds one unsettled load's buffers). 0 means 32.
	MaxStreamDepth int
	// ReadTimeout is the per-frame read deadline; a peer that cannot
	// deliver a frame within it is disconnected. 0 means 30s.
	ReadTimeout time.Duration
	// MaxDetectorWait caps a round's worst-case failure-detector budget
	// (timeout × backoff-expanded retries × the protocol's phase scaling).
	// A round whose parameters could stall a round slot longer than this is
	// refused with "bad-round" — clients of large sessions must ask for
	// snappy detectors. 0 means 60s.
	MaxDetectorWait time.Duration
	// MaxBody caps frame bodies (wire.ReadFrame). 0 means wire.DefaultMaxBody.
	MaxBody int
	// Registry receives the daemon's metrics. nil means a private registry
	// (still scrapable via Server.Registry).
	Registry *obs.Registry
	// Ledger, when non-nil, is the durable evidence store every served
	// round is recorded into: round-open before the run, artifacts during
	// it, fines + settle — fsynced — strictly before the result frame is
	// written (fsync-before-ack). The store must be freshly opened and
	// issue-free; Listen runs crash recovery over it before serving.
	Ledger *ledger.Store
	// Logf receives operational log lines. nil discards.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxConns == 0 {
		c.MaxConns = 1024
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 2048
	}
	if c.MaxSessionSize == 0 {
		c.MaxSessionSize = 512
	}
	if c.MaxConcurrentRounds == 0 {
		c.MaxConcurrentRounds = 8
	}
	if c.MaxStreamCount == 0 {
		c.MaxStreamCount = 65536
	}
	if c.MaxStreamDepth == 0 {
		c.MaxStreamDepth = 32
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.MaxDetectorWait == 0 {
		c.MaxDetectorWait = 60 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is one daemon instance.
type Server struct {
	cfg     Config
	ln      net.Listener
	met     *metrics
	pool    *sessionPool
	tenants *tenantBook

	roundSlots chan struct{} // round-concurrency semaphore

	mu       sync.Mutex
	conns    map[*connState]struct{}
	draining bool
	drainCh  chan struct{}

	wg        sync.WaitGroup // accept loop + connection handlers
	sessionID atomic.Uint64
}

// New builds a server from the config without listening yet.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		met:        newMetrics(cfg.Registry),
		roundSlots: make(chan struct{}, cfg.MaxConcurrentRounds),
		conns:      make(map[*connState]struct{}),
		drainCh:    make(chan struct{}),
	}
	s.pool = newSessionPool(cfg.MaxSessions, s.met, cfg.Ledger)
	s.tenants = newTenantBook(s.met)
	return s
}

// Listen binds the configured address and starts the accept loop. With a
// ledger configured, crash recovery runs first: every session in the log
// is re-verified and its settled rounds applied to the tenant books,
// interrupted rounds are resumed or voided,
// and the warm sessions land in the pool — a recovery failure refuses to
// serve rather than continuing on top of damaged evidence.
func Listen(cfg Config) (*Server, error) {
	s := New(cfg)
	if err := s.Recover(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return s, nil
}

// Serve starts the accept loop on ln (owned by the server from here on).
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	s.cfg.Logf("dlsd: listening on %s", ln.Addr())
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// ServeConn serves one pre-established connection synchronously, applying
// the same admission control as the accept loop. It exists for transports
// the daemon does not listen on itself (in-memory pipes in the fuzz
// harness, future listeners) and returns when the connection is done.
func (s *Server) ServeConn(c net.Conn) {
	s.met.connsAccepted.Inc()
	cs := &connState{conn: c}
	if !s.admit(cs) {
		s.met.connsRejected.Inc()
		cs.writeError(s, 0, CodeOverloaded, "connection limit reached")
		c.Close()
		return
	}
	s.wg.Add(1)
	s.handleConn(cs)
}

// Registry exposes the server's metrics registry (for /metrics endpoints
// and tests).
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// TenantLedgerNetZero reports whether the tenant's cumulative ledger
// conserves money within tol (true for unknown tenants: an empty ledger
// conserves trivially).
func (s *Server) TenantLedgerNetZero(tenant string, tol float64) bool {
	return s.tenants.netZero(tenant, tol)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept errors (EMFILE under load): back off briefly.
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			s.cfg.Logf("dlsd: accept: %v", err)
			select {
			case <-s.drainCh:
				return
			case <-time.After(5 * time.Millisecond):
			}
			continue
		}
		s.met.connsAccepted.Inc()
		cs := &connState{conn: c}
		if !s.admit(cs) {
			s.met.connsRejected.Inc()
			cs.writeError(s, 0, CodeOverloaded, "connection limit reached")
			c.Close()
			continue
		}
		s.wg.Add(1)
		go s.handleConn(cs)
	}
}

// admit registers the connection unless the server is draining or full.
func (s *Server) admit(cs *connState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[cs] = struct{}{}
	s.met.connsActive.Add(1)
	return true
}

func (s *Server) dropConn(cs *connState) {
	s.mu.Lock()
	if _, ok := s.conns[cs]; ok {
		delete(s.conns, cs)
		s.met.connsActive.Add(-1)
	}
	s.mu.Unlock()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Shutdown drains the server: the listener closes, idle connections are
// nudged off their blocked reads, in-flight rounds run to completion and
// their results are written before the connections close. If ctx expires
// first, remaining connections are severed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.drainCh)
		if s.ln != nil {
			s.ln.Close()
		}
		s.met.draining.Set(1)
		s.cfg.Logf("dlsd: draining")
		// Nudge idle connections: a conn mid-round finishes and closes on
		// its own; a conn blocked in a read gets an immediate deadline.
		s.mu.Lock()
		for cs := range s.conns {
			cs.nudge()
		}
		s.mu.Unlock()
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for cs := range s.conns {
			cs.conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if n := s.pool.outstanding(); n > 0 {
		// Every handler has exited; a checkout that never came back is a
		// real leak, surfaced for the soak tests and the smoke scrape.
		s.met.sessionLeaks.Add(int64(n))
		s.cfg.Logf("dlsd: %d sessions leaked at shutdown", n)
	}
	s.cfg.Logf("dlsd: drained")
	return err
}

// Close severs everything immediately (tests).
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// FDCount returns the process's open file-descriptor count (for leak
// assertions in the soak suite); -1 when /proc is unavailable.
func FDCount() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// errClosedResponse marks response-write failures (peer went away); the
// handler treats them as a normal disconnect.
var errClosedResponse = fmt.Errorf("server: response write failed: %w", io.ErrClosedPipe)
