package ledger

import (
	"fmt"

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
// artifact payload must decode under its declared kind, and every embedded
// signature must verify against pki (nil: shapes only). Signatures are
// checked in place, over the records' own bytes. Passing the PKI of the
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
	for i, rec := range g.Records {
		if rec.Kind == 0 {
			continue
		}
		if err := verifyArtifact(pki, rec); err != nil {
			add("bad-artifact", g.Artifacts[i], "%s: %v", rec.Kind, err)
		}
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

// artifactTypes maps each artifact kind to the wire frame its payload holds.
var artifactTypes = [...]wire.MsgType{
	KindBid:       wire.TypeBid,
	KindAlloc:     wire.TypeAlloc,
	KindLoadAck:   wire.TypeLoad,
	KindGrievance: wire.TypeGrievance,
	KindBill:      wire.TypeBill,
	KindFine:      wire.TypeDetection,
	KindJournal:   wire.TypeJournal,
}

// verifyArtifact checks one artifact payload's shape under its declared
// kind and verifies every embedded signature in place, over the record's
// own bytes: nothing is decoded into messages or copied. pki may be nil
// (the session record was damaged); payload shape is still checked.
func verifyArtifact(pki *sign.PKI, rec Record) error {
	if int(rec.Kind) >= len(artifactTypes) || artifactTypes[rec.Kind] == 0 {
		return fmt.Errorf("unexpected artifact kind %s", rec.Kind)
	}
	return wire.VisitSigned(rec.Payload, artifactTypes[rec.Kind], func(name string, sg sign.Signed) error {
		if signedZero(sg) || pki == nil {
			return nil
		}
		if err := pki.Verify(sg); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	})
}
