package server_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/ledger"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/verify"
	"dlsmech/internal/wire"
)

var updateStrategyDigests = flag.Bool("update-strategy-digests", false, "rewrite testdata/strategy-settle-digests.txt from this code")

// strategyDigestFile pins the settle payload of every strategy-catalog
// scenario at m=8, for each of strategySeeds.
const strategyDigestFile = "testdata/strategy-settle-digests.txt"

var strategySeeds = []uint64{3, 17, 101}

// strategyRound runs one catalog scenario as the daemon runs a durable
// round: generation 1 of a fresh session on an in-memory ledger, seeded by
// its generation, its evidence recorded through sink(rl) (nil: rl itself),
// its journal staged and its settle appended. It returns the log reopened
// whole, as an auditor sees it, and the settle payload.
func strategyRound(t *testing.T, s verify.Strategy, seed uint64, sink func(*ledger.RoundLog) protocol.EvidenceSink) (*ledger.Store, []byte) {
	t.Helper()
	return durableRound(t, 8, s, seed, sink)
}

// durableRound is strategyRound with m workers.
func durableRound(t *testing.T, m int, s verify.Strategy, seed uint64, sink func(*ledger.RoundLog) protocol.EvidenceSink) (*ledger.Store, []byte) {
	t.Helper()
	net := servertest.ChainNet(m, seed)
	hello := wire.Hello{Tenant: "catalog", Size: net.Size(), Seed: seed}
	be := ledger.NewMemBackend()
	st, err := ledger.Open(be, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := st.OpenSession(hello)
	if err != nil {
		t.Fatal(err)
	}
	rq := servertest.RoundFor(net, 1, seed*10+1)
	rl, err := sl.OpenRound(rq)
	if err != nil {
		t.Fatal(err)
	}
	// An interior deviant with a successor, which every strategy accepts.
	pos := m / 2
	cfg := core.DefaultConfig()
	if s.Expect.NeedsCertainAudit {
		cfg.AuditProb = 1
	}
	var ev protocol.EvidenceSink = rl
	if sink != nil {
		ev = sink(rl)
	}
	p := protocol.Params{
		Net:        net,
		Profile:    agent.AllTruthful(net.Size()).WithDeviant(pos, s.Behavior),
		Cfg:        cfg,
		Seed:       rq.Seed,
		Gen:        rl.Gen(),
		LambdaUnit: 1.0 / 256,
		Recovery:   protocol.RecoveryConfig{Timeout: 25 * time.Millisecond, Retries: 1, Backoff: 1.5},
		Evidence:   ev,
	}
	if s.Inject != nil {
		p.Inject = s.Inject(rq.Seed, pos)
	}
	res, err := protocol.NewSession(hello.Size, hello.Seed).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	rl.RecordJournal(server.JournalToWire(res))
	rr := server.ResultToWire(rq.Seq, res)
	if err := rl.Close(rr); err != nil {
		t.Fatal(err)
	}
	if st, err = ledger.Open(be, nil); err != nil {
		t.Fatal(err)
	}
	if is := st.Issues(); len(is) > 0 {
		t.Fatalf("ledger issues: %v", is)
	}
	if fs := st.Forks(); len(fs) > 0 {
		t.Fatalf("ledger forks: %v", fs)
	}
	return st, wire.AppendRoundResult(nil, rr)
}

// TestStrategySettleDigests pins the settlement bytes of the whole strategy
// catalog: every scenario at m=8, for three seeds, run as a durable daemon
// round with its evidence recorded, must settle to the payload whose
// SHA-256 the checked-in table holds. A change to how evidence is
// recorded or stored may not move a settlement byte; a change that means
// to (a new settlement rule) regenerates the table with
// -update-strategy-digests and says why.
func TestStrategySettleDigests(t *testing.T) {
	var mu sync.Mutex
	got := make(map[string]string)
	t.Run("run", func(t *testing.T) {
		for _, s := range verify.Catalog() {
			for _, seed := range strategySeeds {
				s, seed := s, seed
				t.Run(fmt.Sprintf("%s/%d", s.Name, seed), func(t *testing.T) {
					t.Parallel()
					_, payload := strategyRound(t, s, seed, nil)
					sum := sha256.Sum256(payload)
					mu.Lock()
					got[fmt.Sprintf("%s %d", s.Name, seed)] = hex.EncodeToString(sum[:])
					mu.Unlock()
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	if *updateStrategyDigests {
		lines := make([]string, 0, len(got))
		for k, v := range got {
			lines = append(lines, k+" "+v)
		}
		sort.Strings(lines)
		if err := os.WriteFile(filepath.FromSlash(strategyDigestFile), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(filepath.FromSlash(strategyDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("digest line %q", sc.Text())
		}
		want[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("the table holds %d scenarios, the catalog runs %d", len(want), len(got))
	}
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no digest in the table", k)
		} else if g != w {
			t.Errorf("%s: settle digest %s, want %s", k, g, w)
		}
	}
}
