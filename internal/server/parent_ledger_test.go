package server_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dlsmech/internal/ledger"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// recoveryLog collects a server's log lines and reads its recovery line.
type recoveryLog struct {
	t     *testing.T
	mu    sync.Mutex
	lines []string
}

func (l *recoveryLog) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	l.t.Log(line)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, line)
}

var recoveryCountsRe = regexp.MustCompile(`journal \S+ \((\d+) rounds\), replay (\S+) \((\d+) legacy rounds\)`)

// has reports whether a logged line matches re.
func (l *recoveryLog) has(re *regexp.Regexp) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if re.MatchString(line) {
			return true
		}
	}
	return false
}

// counts returns the settled rounds the last recovery applied from
// journals and replayed as legacy, and its replay time as printed.
func (l *recoveryLog) counts() (journaled, replayed int, replay string) {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.lines) - 1; i >= 0; i-- {
		if m := recoveryCountsRe.FindStringSubmatch(l.lines[i]); m != nil {
			journaled, _ = strconv.Atoi(m[1])
			replayed, _ = strconv.Atoi(m[3])
			return journaled, replayed, m[2]
		}
	}
	l.t.Fatalf("no recovery line among %q", l.lines)
	return 0, 0, ""
}

// fixtureLedger copies the checked-in ledger testdata/name, whose segments
// all carry magic, into a fresh directory and returns it with its
// settle-payload digest table, keyed "session gen".
func fixtureLedger(t *testing.T, name, magic string) (string, map[string]string) {
	t.Helper()
	src := filepath.Join("testdata", name)
	dir := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(src, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("fixture segments: %v", err)
	}
	for _, name := range segs {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), magic) {
			t.Fatalf("%s is not a %s segment", name, magic)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(filepath.Join(src, "settle-digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("digest line %q", sc.Text())
		}
		digests[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return dir, digests
}

// TestRecoverParentLedger: a ledger written by the previous format (two
// m=4 tenants, settled rounds, a void, a shedder's fine, and a tail whose
// Phase III load acknowledgements are on disk) recovers under this code.
// Its rounds are legacy: recovery replays them on the session's Λ stream
// and resumes the tail there with no fork. A round served afterwards is
// seeded by its generation and journaled, so the next restart applies its
// journal and still replays the legacy ones. Every settle payload,
// the resumed tail's included, matches the digest table written with the
// fixture, and a strict audit finds no violation.
func TestRecoverParentLedger(t *testing.T) {
	dir, digests := fixtureLedger(t, "parent-ledger", "DLSLEDG1")
	alpha := wire.Hello{Tenant: "alpha", Size: 5, Seed: 7}

	log := &recoveryLog{t: t}
	st := deferLedger(t, dir)
	s, err := server.Listen(server.Config{Ledger: st, Logf: log.logf})
	if err != nil {
		t.Fatalf("recover the parent ledger: %v", err)
	}
	if j, r, _ := log.counts(); j != 0 || r != 5 {
		t.Fatalf("recovery applied %d journals and replayed %d legacy rounds, want 0 and 5", j, r)
	}
	if forks := st.Forks(); len(forks) != 0 {
		t.Fatalf("the resumed tail forked the evidence: %v", forks)
	}
	c, err := server.Dial(s.Addr().String(), alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Ack().Pooled {
		t.Fatal("the recovered session is not in the pool")
	}
	rq := servertest.RoundFor(servertest.ChainNet(4, alpha.Seed), 5, alpha.Seed*100+5)
	rq.LambdaUnit = 1.0 / 256
	if _, err := c.Round(rq); err != nil {
		t.Fatalf("round after recovery: %v", err)
	}
	c.Close()
	shutdownServer(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	log = &recoveryLog{t: t}
	st = deferLedger(t, dir)
	s, err = server.Listen(server.Config{Ledger: st, Logf: log.logf})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	if j, r, _ := log.counts(); j != 1 || r != 6 {
		t.Fatalf("second restart applied %d journals and replayed %d legacy rounds, want 1 and 6", j, r)
	}
	shutdownServer(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	audit := openLedger(t, dir)
	defer audit.Close()
	if forks := audit.Forks(); len(forks) != 0 {
		t.Fatalf("forks: %v", forks)
	}
	for _, sv := range audit.Sessions() {
		for _, gv := range sv.Gens {
			if gv.Legacy != (gv.Gen <= 4) {
				t.Errorf("session %d gen %d: legacy %v", sv.ID, gv.Gen, gv.Legacy)
			}
			if gv.Settle.IsZero() {
				continue
			}
			key := fmt.Sprintf("%d %d", sv.ID, gv.Gen)
			want, ok := digests[key]
			if !ok {
				if sv.ID == 1 && gv.Gen == 5 {
					continue // served after the recovery
				}
				t.Fatalf("session %d gen %d settled, but the digest table has no entry", sv.ID, gv.Gen)
			}
			rec, err := audit.Get(gv.Settle)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(rec.Payload)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("session %d gen %d settle digest %s, want %s", sv.ID, gv.Gen, got, want)
			}
			delete(digests, key)
		}
	}
	if len(digests) != 0 {
		t.Fatalf("digests with no settle record: %v", digests)
	}
	if sv := audit.Session(2); sv == nil || len(sv.Gens) != 3 || sv.Gens[2].Void.IsZero() {
		t.Fatal("the fixture's voided generation is missing")
	}
	rep, err := server.AuditLedger(audit, server.AuditOptions{Strict: true, MaxTheoremCells: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// phase3Sink forwards Phase I–III evidence (bids, allocation frames and
// load acknowledgements with their Λ attestations) to the round log and
// drops the rest: an arbiter that crashed after Phase III.
type phase3Sink struct{ rl *ledger.RoundLog }

func (s phase3Sink) RecordBid(slot int, sg sign.Signed)  { s.rl.RecordBid(slot, sg) }
func (s phase3Sink) RecordAlloc(g wire.Alloc)            { s.rl.RecordAlloc(g) }
func (s phase3Sink) RecordLoadAck(slot int, l wire.Load) { s.rl.RecordLoadAck(slot, l) }
func (s phase3Sink) RecordGrievance(wire.Grievance)      {}
func (s phase3Sink) RecordBill(wire.Bill)                {}

// TestLedgerCrashRecoveryResumeLoadAcks is TestLedgerCrashRecoveryResume
// with the crash after Phase III: round k's load acknowledgements, whose Λ
// identifiers the issuer minted, are on disk. The restart applies rounds
// 1..k-1 from their journals with no replay, and resumes round k seeded by
// its generation, so the re-run mints the same identifiers: no fork, and
// the settle is the uninterrupted run's.
func TestLedgerCrashRecoveryResumeLoadAcks(t *testing.T) {
	dir := t.TempDir()
	net := servertest.ChainNet(4, 42)
	hello := wire.Hello{Tenant: "crash3", Size: net.Size(), Seed: 7}
	const k = 4
	rqs := make([]wire.Round, k)
	for i := range rqs {
		rqs[i] = servertest.RoundFor(net, uint64(i+1), uint64(300+i))
		rqs[i].LambdaUnit = 1.0 / 256
	}

	st1 := deferLedger(t, dir)
	s1, err := server.Listen(server.Config{Ledger: st1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	c, err := server.Dial(s1.Addr().String(), hello)
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range rqs[:k-1] {
		if _, err := c.Round(rq); err != nil {
			t.Fatalf("round %d: %v", rq.Seq, err)
		}
	}
	c.Close()
	shutdownServer(t, s1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: round k ran as the daemon runs it, with its evidence up to
	// Phase III on disk and no bill, fine, journal or settle.
	st2 := openLedger(t, dir)
	sl, err := st2.ResumeSession(1)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := sl.OpenRound(rqs[k-1])
	if err != nil {
		t.Fatal(err)
	}
	params, err := server.RoundParams(hello.Size, rqs[k-1])
	if err != nil {
		t.Fatal(err)
	}
	params.Evidence, params.Gen = phase3Sink{rl}, rl.Gen()
	resK, err := protocol.NewSession(hello.Size, hello.Seed).Run(params)
	if err != nil {
		t.Fatal(err)
	}
	wantK := wire.AppendRoundResult(nil, server.ResultToWire(rqs[k-1].Seq, resK))
	acks := 0
	for _, h := range st2.Session(1).Gens[k-1].Artifacts {
		rec, err := st2.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == ledger.KindLoadAck {
			acks++
		}
	}
	if acks == 0 {
		t.Fatal("crash setup: no load acknowledgement on disk")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	log := &recoveryLog{t: t}
	st3 := deferLedger(t, dir)
	s3, err := server.Listen(server.Config{Ledger: st3, Logf: log.logf})
	if err != nil {
		t.Fatalf("restart over a Phase III crash: %v", err)
	}
	if forks := st3.Forks(); len(forks) != 0 {
		t.Fatalf("resume forked the evidence: %v", forks)
	}
	if j, r, replay := log.counts(); j != k-1 || r != 0 || replay != "0s" {
		t.Fatalf("recovery applied %d journals and replayed %d rounds in %s, want %d, 0 and 0s", j, r, replay, k-1)
	}
	shutdownServer(t, s3)
	if err := st3.Close(); err != nil {
		t.Fatal(err)
	}

	st4 := openLedger(t, dir)
	defer st4.Close()
	gv := st4.Session(1).Gens[k-1]
	if gv.Settle.IsZero() || gv.Journal.IsZero() {
		t.Fatalf("round %d: settled %v, journaled %v after recovery", k, !gv.Settle.IsZero(), !gv.Journal.IsZero())
	}
	rec, err := st4.Get(gv.Settle)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Payload) != string(wantK) {
		t.Fatalf("resumed round %d settled differently from the uninterrupted run", k)
	}
	rep, err := server.AuditLedger(st4, server.AuditOptions{Strict: true, MaxTheoremCells: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}
