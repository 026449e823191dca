package ledger_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dlsmech/internal/ledger"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/server/servertest"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// setMagic overwrites the magic of every segment in dir.
func setMagic(t *testing.T, dir, magic string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("segments of %s: %v", dir, err)
	}
	out := make(map[string][]byte)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, magic)
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// TestLegacySegmentFormat: a log whose segments are DLSLEDG1 (the format
// written before rounds were seeded by generation and journaled) or
// DLSLEDG2 (before bills and load acks were normalized) opens, and every
// generation whose round-open sits in one is Literal, and Legacy in a
// DLSLEDG1 one. Nothing is appended to such a segment: the first append
// rolls to a DLSLEDG3 one, and a generation opened there is neither. An
// unknown magic is refused.
func TestLegacySegmentFormat(t *testing.T) {
	for _, magic := range []string{"DLSLEDG1", "DLSLEDG2"} {
		dir := t.TempDir()
		_, id := serveBounded(t, dir, 3)
		old := setMagic(t, dir, magic)

		st, err := ledger.OpenDir(dir, boundedSegSize, nil)
		if err != nil {
			t.Fatalf("open a %s log: %v", magic, err)
		}
		for _, gv := range st.Session(id).Gens {
			if gv.Legacy != (magic == "DLSLEDG1") || !gv.Literal {
				t.Fatalf("gen %d in a %s segment: legacy %v, literal %v", gv.Gen, magic, gv.Legacy, gv.Literal)
			}
		}
		sl, err := st.OpenSession(wire.Hello{Tenant: "after", Size: 5, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		rl, err := sl.OpenRound(servertest.RoundFor(servertest.ChainNet(4, 17), 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := rl.Void(server.CodeRunFailed, "after the upgrade"); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		for name, data := range old {
			got, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: a %s segment was appended to", name, magic)
			}
		}
		names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
		if len(names) != len(old)+1 {
			t.Fatalf("%d segments after the append, want %d", len(names), len(old)+1)
		}
		if data, _ := os.ReadFile(names[len(names)-1]); !bytes.HasPrefix(data, []byte("DLSLEDG3")) {
			t.Fatalf("the new segment starts %q, want DLSLEDG3", data[:min(8, len(data))])
		}

		st, err = ledger.OpenDir(dir, boundedSegSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gv := st.Session(id).Gens[0]; gv.Legacy != (magic == "DLSLEDG1") || !gv.Literal {
			t.Fatalf("a %s generation lost its format on reopen", magic)
		}
		if gv := st.Session(sl.ID()).Gens[0]; gv.Legacy || gv.Literal {
			t.Fatal("a generation opened in a DLSLEDG3 segment is Legacy or Literal")
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		setMagic(t, dir, "DLSLEDG4")
		if _, err := ledger.OpenDir(dir, boundedSegSize, nil); !errors.Is(err, ledger.ErrCorrupt) {
			t.Fatalf("open with an unknown segment magic: %v, want ErrCorrupt", err)
		}
	}
}

// TestJournalCommittedBySettle: a settled round's staged journal is an
// artifact its settle commits to, and reads back as staged; a voided
// round carries none.
func TestJournalCommittedBySettle(t *testing.T) {
	dir := t.TempDir()
	_, id := serveBounded(t, dir, 3) // gen 2 is voided
	st, err := ledger.OpenDir(dir, boundedSegSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	gens := st.Session(id).Gens
	if !gens[1].Journal.IsZero() {
		t.Fatal("a voided generation carries a journal")
	}
	if issues := st.VerifySession(id); len(issues) != 0 {
		t.Fatalf("verify: %v", issues)
	}
	gv := gens[0]
	if gv.Journal.IsZero() {
		t.Fatal("a settled generation carries no journal")
	}
	settle, err := st.Get(gv.Settle)
	if err != nil {
		t.Fatal(err)
	}
	committed := false
	for _, p := range settle.Parents {
		committed = committed || p == gv.Journal
	}
	if !committed {
		t.Fatal("the settle's parent set does not commit to the journal")
	}
	rec, err := st.Get(gv.Journal)
	if err != nil {
		t.Fatal(err)
	}
	entries, n, err := wire.DecodeJournal(rec.Payload)
	if err != nil || n != len(rec.Payload) || len(entries) == 0 {
		t.Fatalf("journal payload: %d entries, %d of %d bytes, %v", len(entries), n, len(rec.Payload), err)
	}
}

// TestGenerationVerifyAllocs pins zero-copy verification: verifying an m=8
// generation whose signatures are in the PKI's memo allocates a handful of
// objects for the whole generation, none per artifact or signature.
func TestGenerationVerifyAllocs(t *testing.T) {
	if ledger.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	dir := t.TempDir()
	st, err := ledger.OpenDir(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := servertest.ChainNet(8, 17)
	hello := wire.Hello{Tenant: "allocs", Size: net.Size(), Seed: 3}
	sl, err := st.OpenSession(hello)
	if err != nil {
		t.Fatal(err)
	}
	rq := servertest.RoundFor(net, 1, 101)
	rq.Deviants = []wire.Deviant{{Pos: 3, Spec: "shedder:0.4"}} // a grievance and a fine too
	rl, err := sl.OpenRound(rq)
	if err != nil {
		t.Fatal(err)
	}
	params, err := server.RoundParams(hello.Size, rq)
	if err != nil {
		t.Fatal(err)
	}
	params.Evidence, params.Gen = rl, rl.Gen()
	res, err := protocol.NewSession(hello.Size, hello.Seed).Run(params)
	if err != nil {
		t.Fatal(err)
	}
	rl.RecordJournal(server.JournalToWire(res))
	if err := rl.Close(server.ResultToWire(rq.Seq, res)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var g *ledger.Generation
	rst := ledger.Defer(dir, 0, nil)
	defer rst.Close()
	if _, err := rst.Restore(func(gen *ledger.Generation) { g = gen }); err != nil || g == nil {
		t.Fatalf("restore: %v", err)
	}
	pki := sign.NewPKI()
	for i := 0; i < hello.Size; i++ {
		pki.MustRegister(i, sign.NewSigner(i, hello.Seed).Public())
	}
	if issues := g.Verify(pki); len(issues) != 0 {
		t.Fatalf("verify: %v", issues)
	}
	kinds := map[ledger.Kind]int{}
	for _, rec := range g.Records {
		kinds[rec.Kind]++
	}
	if kinds[ledger.KindGrievance] == 0 || kinds[ledger.KindFine] == 0 || kinds[ledger.KindJournal] != 1 {
		t.Fatalf("generation holds %v, want a grievance, a fine and one journal", kinds)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if issues := g.Verify(pki); len(issues) != 0 {
			t.Fatalf("verify: %v", issues)
		}
	})
	t.Logf("Verify of an m=8 generation with %d artifacts: %.1f allocs", len(g.Records), allocs)
	if allocs > 4 {
		t.Fatalf("Verify allocates %.1f/op, budget 4", allocs)
	}
}
