package ledger

import (
	"fmt"
	"slices"
	"sync"

	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// signedZero reports an absent optional signature slot (the zero value a
// root bill carries for G and a tail bill for SuccBid).
func signedZero(s sign.Signed) bool {
	return s.SignerID == 0 && len(s.Payload) == 0 && len(s.Sig) == 0
}

// maxSessionSize bounds the PKI rebuild; a session record claiming more
// processors is damaged, not big.
const maxSessionSize = 1 << 21

// Generation is one generation's evidence, as Restore hands it over or as
// VerifySession reads it back: its view, its artifacts' records and its
// close record.
type Generation struct {
	Session uint64
	Hello   wire.Hello
	GenView
	// Records are the artifacts', parallel to Artifacts. A zero Record
	// stands for one that could not be read, which the reader reports.
	Records []Record
	// Close is the settle or void record; its Kind is 0 while the
	// generation is open, or if it could not be read.
	Close Record
}

// Verify checks one generation's evidence from its records alone: the close
// record's parent set must commit to exactly the round-open plus the
// artifacts, the generation may not carry both a settle and a void, every
// artifact payload must decode under its declared kind, every reference a
// stored bill or load ack holds must resolve (see checkRef), and every
// embedded signature must verify against pki (nil: shapes only); a
// referenced signature is verified once, at the artifact that holds it.
// Signatures are checked in place, over the records' own bytes. Passing the PKI of the
// protocol session that replays the generation leaves every signature that
// verified in its memo, so a replay does not check it again. The returned
// issues are report-grade: none means the evidence is internally
// consistent and authentic (whether the economics hold is the replay's and
// the theorem checkers' job).
func (g *Generation) Verify(pki *sign.PKI) []Issue {
	var issues []Issue
	add := func(code string, h Hash, format string, args ...any) {
		issues = append(issues, Issue{
			Code: code, Session: g.Session, Gen: g.Gen, Hash: h,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	if !g.Settle.IsZero() && !g.Void.IsZero() {
		add("double-close", g.Settle, "generation has both a settle and a void record")
	}
	if g.Close.Kind != 0 {
		closeH := g.Settle
		if g.Close.Kind == KindVoid {
			closeH = g.Void
		}
		want := make(map[Hash]struct{}, len(g.Artifacts)+1)
		want[g.Open] = struct{}{}
		for _, ah := range g.Artifacts {
			want[ah] = struct{}{}
		}
		for _, p := range g.Close.Parents {
			if _, ok := want[p]; !ok {
				add("uncommitted-parent", closeH, "close record references %s, which is not this generation's open or an artifact", p.Short())
			}
			delete(want, p)
		}
		for missing := range want {
			add("evidence-gap", closeH, "artifact %s is in the log but not committed by the close record", missing.Short())
		}
	}
	var rt *refTable
	for i, rec := range g.Records {
		if rec.Kind == 0 {
			continue
		}
		if err := g.verifyArtifact(pki, i, &rt); err != nil {
			add("bad-artifact", g.Artifacts[i], "%s: %v", rec.Kind, err)
		}
	}
	if rt != nil {
		refTables.Put(rt)
	}
	return issues
}

// VerifySession re-verifies one session of a store from Open or OpenDir
// from storage alone: each generation's records are read back and checked
// by Generation.Verify against a PKI rebuilt from the session's (size,
// seed).
func (s *Store) VerifySession(id uint64) []Issue {
	sv := s.Session(id)
	if sv == nil {
		return []Issue{{Code: "no-session", Session: id, Detail: "session not in the log"}}
	}
	var issues []Issue
	var pki *sign.PKI
	if sv.Hello.Size <= 0 || sv.Hello.Size > maxSessionSize {
		issues = append(issues, Issue{Code: "bad-session", Session: id, Hash: sv.Head,
			Detail: fmt.Sprintf("implausible session size %d", sv.Hello.Size)})
	} else {
		pki = sign.NewPKI()
		for i := 0; i < sv.Hello.Size; i++ {
			pki.MustRegister(i, sign.NewSigner(i, sv.Hello.Seed).Public())
		}
	}
	for _, gv := range sv.Gens {
		g := &Generation{Session: id, Hello: sv.Hello, GenView: *gv, Records: make([]Record, len(gv.Artifacts))}
		unreadable := func(what string, h Hash, err error) {
			issues = append(issues, Issue{Code: "unreadable", Session: id, Gen: gv.Gen, Hash: h,
				Detail: fmt.Sprintf("%s: %v", what, err)})
		}
		closeH := gv.Settle
		if closeH.IsZero() {
			closeH = gv.Void
		}
		if !closeH.IsZero() {
			rec, err := s.Get(closeH)
			if err != nil {
				unreadable("close record", closeH, err)
			}
			g.Close = rec
		}
		for i, ah := range gv.Artifacts {
			rec, err := s.Get(ah)
			if err != nil {
				unreadable("artifact", ah, err)
			}
			g.Records[i] = rec
		}
		issues = append(issues, g.Verify(pki)...)
	}
	return issues
}

// artifactTypes maps each artifact kind to the wire frame its payload
// holds; storedTypes to the stored frame it may hold instead.
var (
	artifactTypes = [...]wire.MsgType{
		KindBid:       wire.TypeBid,
		KindAlloc:     wire.TypeAlloc,
		KindLoadAck:   wire.TypeLoad,
		KindGrievance: wire.TypeGrievance,
		KindBill:      wire.TypeBill,
		KindFine:      wire.TypeDetection,
		KindJournal:   wire.TypeJournal,
	}
	storedTypes = [len(artifactTypes)]wire.MsgType{
		KindLoadAck: wire.TypeStoredLoad,
		KindBill:    wire.TypeStoredBill,
	}
)

// verifyArtifact checks artifact i's payload shape under its declared
// kind, resolves its references and verifies every embedded signature in
// place, over the record's own bytes: nothing is decoded into messages or
// copied. pki may be nil (the session record was damaged); payload shape
// and references are still checked. *rt is the generation's reference
// table, built at the first reference.
func (g *Generation) verifyArtifact(pki *sign.PKI, i int, rt **refTable) error {
	rec := &g.Records[i]
	if int(rec.Kind) >= len(artifactTypes) || artifactTypes[rec.Kind] == 0 {
		return fmt.Errorf("unexpected artifact kind %s", rec.Kind)
	}
	t := artifactTypes[rec.Kind]
	if pt, err := wire.Peek(rec.Payload); err == nil && pt == storedTypes[rec.Kind] {
		t = pt
	}
	refs := 0
	err := wire.VisitEvidence(rec.Payload, t, func(name string, sg sign.Signed) error {
		if signedZero(sg) || pki == nil {
			return nil
		}
		if err := pki.Verify(sg); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}, func(k int, r wire.LedgerRef) error {
		refs++
		if *rt == nil {
			*rt = g.refTable()
		}
		return g.checkRef(*rt, i, k, r)
	})
	if err != nil {
		return err
	}
	if max(len(rec.Parents), 1) != 1+refs {
		return fmt.Errorf("%d parents for %d references", len(rec.Parents), refs)
	}
	return nil
}

// refTable resolves references within one generation: the artifact index
// of the first bid, alloc and load ack per slot, and the Λ length of each
// load ack, -1 until known: a literal one's from the start, a stored one's
// once its reference is checked.
type refTable struct {
	bids, allocs, acks []int32
	attLen             []int
}

var refTables = sync.Pool{New: func() any { return new(refTable) }}

// refTable builds the table over g's artifacts.
func (g *Generation) refTable() *refTable {
	rt := refTables.Get().(*refTable)
	size := 0
	if g.Hello.Size > 0 && g.Hello.Size <= maxSessionSize {
		size = g.Hello.Size
	}
	fill := func(s []int32) []int32 {
		s = slices.Grow(s[:0], size)[:size]
		for i := range s {
			s[i] = -1
		}
		return s
	}
	rt.bids, rt.allocs, rt.acks = fill(rt.bids), fill(rt.allocs), fill(rt.acks)
	rt.attLen = slices.Grow(rt.attLen[:0], len(g.Records))[:len(g.Records)]
	for i, rec := range g.Records {
		rt.attLen[i] = -1
		if rec.Kind == KindLoadAck {
			if t, err := wire.Peek(rec.Payload); err == nil && t == wire.TypeLoad {
				rt.attLen[i] = wire.LoadAttLen(rec.Payload)
			}
		}
		if col := rt.column(rec.Kind); rec.Slot >= 0 && rec.Slot < len(col) && col[rec.Slot] < 0 {
			col[rec.Slot] = int32(i)
		}
	}
	return rt
}

// column returns the artifact indexes by slot of kind, or nil for a kind
// no reference names.
func (rt *refTable) column(k Kind) []int32 {
	switch k {
	case KindBid:
		return rt.bids
	case KindAlloc:
		return rt.allocs
	case KindLoadAck:
		return rt.acks
	}
	return nil
}

// checkRef checks the k-th reference r of artifact i: its parent (the
// record's (k+1)-th) must be the artifact of the generation r names, by
// kind and slot, appended before artifact i; a successor-bid reference
// must name a bid holding exactly one signature, and an attestation
// offset must lie within its referent's Λ.
func (g *Generation) checkRef(rt *refTable, i, k int, r wire.LedgerRef) error {
	rec := &g.Records[i]
	if 1+k >= len(rec.Parents) {
		return fmt.Errorf("reference %d (%s) has no parent", k, r)
	}
	j := -1
	if col := rt.column(Kind(r.Kind)); r.Slot >= 0 && r.Slot < len(col) {
		j = int(col[r.Slot])
	}
	if j < 0 || g.Artifacts[j] != rec.Parents[1+k] {
		return fmt.Errorf("reference %d names %s, but its parent %s is not that artifact of the generation", k, r, rec.Parents[1+k].Short())
	}
	if j >= i {
		return fmt.Errorf("reference %d names %s, which was appended after it", k, r)
	}
	switch r.Field {
	case wire.RefBidSigned:
		if n := wire.BidSignatures(g.Records[j].Payload); n != 1 {
			return fmt.Errorf("reference %d names %s, which holds %d signatures", k, r, n)
		}
	case wire.RefLoadAtt:
		n := rt.attLen[j]
		if n < 0 {
			return fmt.Errorf("reference %d names %s, whose Λ does not verify", k, r)
		}
		if r.Offset > n {
			return fmt.Errorf("reference %d: offset %d beyond the %d blocks of %s", k, r.Offset, n, r)
		}
		if rec.Kind == KindLoadAck {
			rt.attLen[i] = n - r.Offset
		}
	}
	return nil
}

// Payload returns the payload of the record at h as the wire frame it
// stands for: a stored bill or load ack is expanded, through the records
// its references' parents name (wire.ExpandStored), to the exact bill or
// load frame the round produced; any other payload is returned as it is.
func (s *Store) Payload(h Hash) ([]byte, error) {
	rec, err := s.Get(h)
	if err != nil {
		return nil, err
	}
	return wire.ExpandStored(nil, rec.Payload, func(k int) ([]byte, error) {
		if 1+k >= len(rec.Parents) {
			return nil, fmt.Errorf("ledger: reference %d of %s has no parent", k, h.Short())
		}
		return s.Payload(rec.Parents[1+k])
	})
}
