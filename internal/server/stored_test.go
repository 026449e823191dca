package server_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dlsmech/internal/agent"
	"dlsmech/internal/fault"
	"dlsmech/internal/ledger"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/verify"
	"dlsmech/internal/wire"
)

// captureSink records evidence through its round log and keeps the wire
// frame of the first bill and load ack per slot, as the protocol handed
// them over.
type captureSink struct {
	*ledger.RoundLog
	mu    sync.Mutex
	bills map[int][]byte
	loads map[int][]byte
}

func newCaptureSink(rl *ledger.RoundLog) *captureSink {
	return &captureSink{RoundLog: rl, bills: map[int][]byte{}, loads: map[int][]byte{}}
}

func (c *captureSink) RecordLoadAck(slot int, l wire.Load) {
	c.mu.Lock()
	if _, ok := c.loads[slot]; !ok {
		c.loads[slot] = wire.AppendLoad(nil, l)
	}
	c.mu.Unlock()
	c.RoundLog.RecordLoadAck(slot, l)
}

func (c *captureSink) RecordBill(b wire.Bill) {
	c.mu.Lock()
	if _, ok := c.bills[b.From]; !ok {
		c.bills[b.From] = wire.AppendBill(nil, b)
	}
	c.mu.Unlock()
	c.RoundLog.RecordBill(b)
}

// faultMatrix is every fault kind at every protocol phase, once, on the
// deviant position of strategyRound: the recorded evidence of lost,
// delayed, duplicated, reordered and corrupted messages, crashes and
// stalls.
func faultMatrix() []verify.Strategy {
	kinds := []fault.Kind{fault.Drop, fault.Delay, fault.Duplicate, fault.Reorder, fault.CorruptSig, fault.Crash, fault.Stall}
	phases := []fault.Phase{fault.PhaseBid, fault.PhaseAlloc, fault.PhaseLoad, fault.PhaseBill}
	var out []verify.Strategy
	for _, k := range kinds {
		for _, ph := range phases {
			rule := fault.Rule{Kind: k, Phase: ph, Times: 1}
			out = append(out, verify.Strategy{
				Name:     fmt.Sprintf("%s-%s", k, ph),
				Behavior: agent.Truthful(),
				Inject: func(seed uint64, proc int) fault.Injector {
					r := rule
					r.Proc = proc
					return fault.NewPlan(seed, r)
				},
			})
		}
	}
	return out
}

// TestStoredEvidenceExpandsExactly: expand(store(x)) == x. For every
// strategy-catalog scenario (three seeds) and every fault-matrix case at
// m=8, each bill and load ack the ledger holds expands, through the
// records its references name, to exactly the wire frame the protocol
// recorded, and the generation verifies clean but for the signatures a
// fault corrupted in transit. Across the suite, most
// bills and load acks are stored with references.
func TestStoredEvidenceExpandsExactly(t *testing.T) {
	type run struct {
		s    verify.Strategy
		seed uint64
	}
	var runs []run
	for _, s := range verify.Catalog() {
		for _, seed := range strategySeeds {
			runs = append(runs, run{s, seed})
		}
	}
	for _, s := range faultMatrix() {
		runs = append(runs, run{s, strategySeeds[0]})
	}
	var total, stored atomic.Int64
	t.Run("run", func(t *testing.T) {
		for _, r := range runs {
			r := r
			t.Run(fmt.Sprintf("%s/%d", r.s.Name, r.seed), func(t *testing.T) {
				t.Parallel()
				var cap *captureSink
				st, _ := strategyRound(t, r.s, r.seed, func(rl *ledger.RoundLog) protocol.EvidenceSink {
					cap = newCaptureSink(rl)
					return cap
				})
				for _, is := range st.VerifySession(1) {
					// A corrupted signature is recorded as it arrived.
					if !strings.Contains(is.Detail, "signature verification failed") {
						t.Fatalf("verify: %v", is)
					}
				}
				gv := st.Session(1).Gens[0]
				seen := 0
				for _, h := range gv.Artifacts {
					rec, err := st.Get(h)
					if err != nil {
						t.Fatal(err)
					}
					var want []byte
					switch rec.Kind {
					case ledger.KindBill:
						want = cap.bills[rec.Slot]
					case ledger.KindLoadAck:
						want = cap.loads[rec.Slot]
					default:
						continue
					}
					seen++
					got, err := st.Payload(h)
					if err != nil {
						t.Fatalf("%s slot %d: expand: %v", rec.Kind, rec.Slot, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s slot %d: the expanded payload differs from the recorded frame", rec.Kind, rec.Slot)
					}
					total.Add(1)
					if typ, _ := wire.Peek(rec.Payload); typ == wire.TypeStoredBill || typ == wire.TypeStoredLoad {
						stored.Add(1)
					}
				}
				if seen != len(cap.bills)+len(cap.loads) {
					t.Fatalf("the ledger holds %d bills and load acks, the protocol recorded %d", seen, len(cap.bills)+len(cap.loads))
				}
			})
		}
	})
	if n, s := total.Load(), stored.Load(); !t.Failed() && 10*s < 8*n {
		t.Fatalf("%d of %d bills and load acks stored with references, want at least 80%%", s, n)
	}
}

// TestStoredEvidenceDeterministic: which sections a recorder stores as
// references depends on the round's evidence alone, not on how the
// processor goroutines were scheduled: the same m=32 round, run again
// and again, settles to the same settle record, whose parent set commits
// to every artifact's address.
func TestStoredEvidenceDeterministic(t *testing.T) {
	honest := verify.Catalog()[0]
	var first ledger.Hash
	for i := 0; i < 8; i++ {
		st, _ := durableRound(t, 32, honest, 5, nil)
		settle := st.Session(1).Gens[0].Settle
		if i == 0 {
			first = settle
		} else if settle != first {
			t.Fatalf("run %d settled to %s, run 0 to %s: the stored evidence differs", i, settle.Short(), first.Short())
		}
	}
}

// TestRecoveryRefusesRewrittenReferent: a load ack that later records
// reference (load-ack(0), whose Λ is Λ_0) rewritten in place, one block
// changed and its segment digest recomputed, so that the file reads clean,
// is refused by recovery: its content address moved, so the records that
// reference it, and the settle, name a record the log does not hold.
func TestRecoveryRefusesRewrittenReferent(t *testing.T) {
	dir := damagedLedger(t, nil, nil)
	st := openLedger(t, dir)
	var frame []byte
	gv := st.Session(1).Gens[1]
	referenced := false
	for _, h := range gv.Artifacts {
		rec, err := st.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == ledger.KindLoadAck && rec.Slot == 0 {
			if frame, err = st.GetFrame(h); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range rec.Parents[1:] {
			if rec2, err := st.Get(p); err == nil && rec2.Kind == ledger.KindLoadAck && rec2.Slot == 0 {
				referenced = true
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if frame == nil || !referenced {
		t.Fatalf("round 2 holds load-ack(0): %v, referenced: %v", frame != nil, referenced)
	}
	seg := filepath.Join(dir, "00000000.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, frame)
	if at < 0 || bytes.Count(data, frame) != 1 {
		t.Fatal("load-ack(0) not found once in the segment")
	}
	end := at + len(frame)
	data[end-1] ^= 0x01 // the last block of Λ_0
	sum := sha256.Sum256(data[at:end])
	copy(data[end:], sum[:])
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := deferLedger(t, dir)
	defer st2.Close()
	s, err := server.Listen(server.Config{Ledger: st2, Logf: t.Logf})
	if err == nil {
		shutdownServer(t, s)
		t.Fatal("recovery accepted a rewritten load-ack(0)")
	}
	if !strings.Contains(err.Error(), "recover ledger session 1:") || !strings.Contains(err.Error(), "missing-parent") {
		t.Fatalf("want session 1 refused for a missing parent, got %v", err)
	}
}
