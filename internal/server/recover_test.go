package server_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dlsmech/internal/ledger"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// recoveryTenants are the sessions of the multi-tenant recovery suite, in
// the order they are opened (= ledger session IDs 1..4): tenant "a" owns
// two sessions with different seeds.
var recoveryTenants = []wire.Hello{
	{Tenant: "a", Size: 4, Seed: 7},
	{Tenant: "b", Size: 5, Seed: 9},
	{Tenant: "a", Size: 4, Seed: 8},
	{Tenant: "c", Size: 3, Seed: 11},
}

const servedRounds = 3

// roundOf is the seq-th round of the session opened by hello.
func roundOf(hello wire.Hello, seq uint64) wire.Round {
	return servertest.RoundFor(servertest.ChainNet(hello.Size-1, hello.Seed), seq, hello.Seed*100+seq)
}

// buildMultiTenantLedger serves servedRounds rounds on every session, then
// "crashes" twice over the log: session 2 (tenant b) is left with an open
// tail generation whose whole evidence is on disk but whose settle never
// landed, and session 4 (tenant c) gets a voided generation.
func buildMultiTenantLedger(t *testing.T, dir string) {
	t.Helper()
	st := deferLedger(t, dir)
	s, err := server.Listen(server.Config{Ledger: st, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, hello := range recoveryTenants {
		c, err := server.Dial(s.Addr().String(), hello)
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= servedRounds; seq++ {
			if _, err := c.Round(roundOf(hello, seq)); err != nil {
				t.Fatalf("%s round %d: %v", hello.Tenant, seq, err)
			}
		}
		c.Close()
	}
	shutdownServer(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openLedger(t, dir)
	defer st.Close()
	// Session 2: run gen servedRounds+1 with full evidence, no settle. The
	// daemon seeds a round by its generation, so no earlier round is re-run.
	hello := recoveryTenants[1]
	sl, err := st.ResumeSession(2)
	if err != nil {
		t.Fatal(err)
	}
	params, err := server.RoundParams(hello.Size, roundOf(hello, servedRounds+1))
	if err != nil {
		t.Fatal(err)
	}
	rl, err := sl.OpenRound(roundOf(hello, servedRounds+1))
	if err != nil {
		t.Fatal(err)
	}
	params.Evidence, params.Gen = rl, rl.Gen()
	if _, err := protocol.NewSession(hello.Size, hello.Seed).Run(params); err != nil {
		t.Fatalf("session 2 round %d: %v", servedRounds+1, err)
	}
	// Session 4: open a generation and void it.
	sl, err = st.ResumeSession(4)
	if err != nil {
		t.Fatal(err)
	}
	rl, err = sl.OpenRound(roundOf(recoveryTenants[3], servedRounds+1))
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.Void(server.CodeRunFailed, "voided before the crash"); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies the flat directory src into a fresh temporary directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	names, err := filepath.Glob(filepath.Join(src, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// readSegments returns every segment file of dir by name.
func readSegments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	out := make(map[string][]byte)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = data
	}
	return out
}

// listenAt runs crash recovery over dir at the given GOMAXPROCS.
func listenAt(t *testing.T, dir string, procs int) (*server.Server, *ledger.Store, error) {
	t.Helper()
	st := deferLedger(t, dir)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, err := server.Listen(server.Config{Ledger: st, Logf: t.Logf})
	if err != nil {
		st.Close()
	}
	return s, st, err
}

// TestRecoveryTenantParallelDeterministic recovers copies of one
// multi-tenant ledger at GOMAXPROCS 1 and 4. Tenants recover concurrently
// at 4 and one after another at 1; the outcome must not tell: the same
// segment bytes (the resumed tail's settle included), the same pool, books
// at NetZero, and the next served round of every session byte-identical.
func TestRecoveryTenantParallelDeterministic(t *testing.T) {
	base := t.TempDir()
	buildMultiTenantLedger(t, base)

	type outcome struct {
		segs  map[string][]byte
		pool  []string
		next  [][]byte
		gens2 int
	}
	recoverAt := func(procs int) outcome {
		dir := copyDir(t, base)
		s, st, err := listenAt(t, dir, procs)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: recovery: %v", procs, err)
		}
		var o outcome
		o.segs = readSegments(t, dir)
		o.pool = server.PoolContents(s)
		o.gens2 = int(st.Session(2).Opened)
		for _, tenant := range []string{"a", "b", "c"} {
			if !s.TenantLedgerNetZero(tenant, 1e-6) {
				t.Fatalf("GOMAXPROCS=%d: tenant %s book not at NetZero after recovery", procs, tenant)
			}
		}
		for _, hello := range recoveryTenants {
			c, err := server.Dial(s.Addr().String(), hello)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Ack().Pooled {
				t.Fatalf("GOMAXPROCS=%d: %+v not served from the recovered pool", procs, hello)
			}
			rr, err := c.Round(roundOf(hello, servedRounds+2))
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: round after recovery: %v", procs, err)
			}
			o.next = append(o.next, wire.AppendRoundResult(nil, rr))
			c.Close()
		}
		shutdownServer(t, s)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Recovery forgot the generations it closed; the reopened log
		// holds them.
		st = openLedger(t, dir)
		defer st.Close()
		if gv := st.Session(2).Gens[o.gens2-1]; gv.Settle.IsZero() {
			t.Fatalf("GOMAXPROCS=%d: interrupted tail not settled by recovery", procs)
		}
		if gv := st.Session(4).Gens[servedRounds]; gv.Void.IsZero() {
			t.Fatalf("GOMAXPROCS=%d: voided generation lost its void", procs)
		}
		return o
	}

	one, four := recoverAt(1), recoverAt(4)
	if one.gens2 != servedRounds+1 {
		t.Fatalf("session 2 has %d generations, want %d", one.gens2, servedRounds+1)
	}
	if len(one.pool) != len(recoveryTenants) {
		t.Fatalf("pool after recovery: %v", one.pool)
	}
	if !reflect.DeepEqual(one.pool, four.pool) {
		t.Fatalf("pool differs across GOMAXPROCS:\n1: %v\n4: %v", one.pool, four.pool)
	}
	if len(one.segs) != len(four.segs) {
		t.Fatalf("segment count differs: %d vs %d", len(one.segs), len(four.segs))
	}
	for name, data := range one.segs {
		if !bytes.Equal(data, four.segs[name]) {
			t.Fatalf("segment %s differs after recovery at GOMAXPROCS 1 and 4", name)
		}
	}
	for i := range one.next {
		if !bytes.Equal(one.next[i], four.next[i]) {
			t.Fatalf("session %d: next served round differs across GOMAXPROCS", i+1)
		}
	}
}

// TestRecoveryReportsLowestFailingSession damages sessions 3 (tenant a,
// recovered after session 1) and 4 (tenant c): whichever tenant finishes
// first, recovery must report session 3.
func TestRecoveryReportsLowestFailingSession(t *testing.T) {
	base := t.TempDir()
	buildMultiTenantLedger(t, base)
	st := openLedger(t, base)
	for _, id := range []uint64{3, 4} {
		hello := recoveryTenants[id-1]
		// An authentic bid smuggled into a settled generation: it names a
		// generation closed earlier in the log, an after-close issue.
		forged := sign.NewSigner(1, hello.Seed).Sign([]byte("late bid"))
		if _, _, err := st.Put(ledger.Record{
			Kind: ledger.KindBid, Session: id, Gen: 1, Slot: 99,
			Parents: []ledger.Hash{st.Session(id).Gens[0].Open},
			Payload: wire.AppendBid(nil, wire.Bid{From: 1, Signed: []sign.Signed{forged}}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4, 4, 4} {
		_, st, err := listenAt(t, copyDir(t, base), procs)
		if err == nil {
			st.Close()
			t.Fatalf("GOMAXPROCS=%d: recovery accepted a damaged ledger", procs)
		}
		if !strings.Contains(err.Error(), "recover ledger session 3:") {
			t.Fatalf("GOMAXPROCS=%d: want session 3 reported, got %v", procs, err)
		}
	}
}
