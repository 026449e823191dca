package ledger

import (
	"bytes"
	"slices"
	"sync"

	"dlsmech/internal/device"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// refIndex is what a round's recorder knows of the artifacts a bill or a
// load ack may reference: per slot, the first bid, alloc and load ack
// recorded, with their addresses and the sections a reference can name.
// Signatures are copied into one byte arena. Each Λ is a range of one
// block arena: a literal one (the root's Λ_0) is copied in, and one stored
// as the tail of its sender's is the tail of that range, not a copy. The
// arenas are pooled across rounds.
type refIndex struct {
	bytes  []byte
	blocks []device.Block
	bids   []bidEntry
	allocs []allocEntry
	acks   []ackEntry
}

// sigSpan is a copied signature: its signer, its payload at
// bytes[p:s] and its signature at bytes[s:e].
type sigSpan struct {
	id      int
	p, s, e int
}

type bidEntry struct {
	h   Hash
	set bool
	sig sigSpan
}

// allocEntry holds an alloc's five signatures in body order; PrevBid is
// sigs[3].
type allocEntry struct {
	h    Hash
	set  bool
	sigs [5]sigSpan
}

type ackEntry struct {
	h      Hash
	set    bool
	lo, hi int // the Λ is blocks[lo:hi]
}

// maxRefSlot bounds the slots the index keeps; a larger one is recorded
// literally.
const maxRefSlot = maxSessionSize

var refIndexes = sync.Pool{New: func() any { return new(refIndex) }}

func getRefIndex() *refIndex {
	ix := refIndexes.Get().(*refIndex)
	ix.bytes, ix.blocks = ix.bytes[:0], ix.blocks[:0]
	clear(ix.bids)
	clear(ix.allocs)
	clear(ix.acks)
	ix.bids, ix.allocs, ix.acks = ix.bids[:0], ix.allocs[:0], ix.acks[:0]
	return ix
}

// grow returns s with index slot addressable.
func grow[T any](s []T, slot int) []T {
	if slot < len(s) {
		return s
	}
	return append(s, make([]T, slot+1-len(s))...)
}

// at returns s[slot], or the zero entry if slot is outside s.
func at[T any](s []T, slot int) (zero T) {
	if slot < 0 || slot >= len(s) {
		return zero
	}
	return s[slot]
}

func (ix *refIndex) copySig(sg sign.Signed) sigSpan {
	p := len(ix.bytes)
	ix.bytes = append(ix.bytes, sg.Payload...)
	s := len(ix.bytes)
	ix.bytes = append(ix.bytes, sg.Sig...)
	return sigSpan{id: sg.SignerID, p: p, s: s, e: len(ix.bytes)}
}

// equal reports whether sg encodes to the same bytes as the copy.
func (ix *refIndex) equal(sp sigSpan, sg sign.Signed) bool {
	return sp.id == sg.SignerID && bytes.Equal(ix.bytes[sp.p:sp.s], sg.Payload) && bytes.Equal(ix.bytes[sp.s:sp.e], sg.Sig)
}

func (ix *refIndex) addBid(slot int, h Hash, sg sign.Signed) {
	if slot < 0 || slot > maxRefSlot || at(ix.bids, slot).set {
		return
	}
	ix.bids = grow(ix.bids, slot)
	ix.bids[slot] = bidEntry{h: h, set: true, sig: ix.copySig(sg)}
}

func (ix *refIndex) addAlloc(h Hash, g *wire.Alloc) {
	if g.To < 0 || g.To > maxRefSlot || at(ix.allocs, g.To).set {
		return
	}
	ix.allocs = grow(ix.allocs, g.To)
	e := &ix.allocs[g.To]
	e.h, e.set = h, true
	for k, sg := range allocSigs(g) {
		e.sigs[k] = ix.copySig(sg)
	}
}

func allocSigs(g *wire.Alloc) [5]sign.Signed {
	return [5]sign.Signed{g.PrevLoad, g.Load, g.PrevEquiv, g.PrevBid, g.EchoEquiv}
}

// allocEqual reports whether g is byte-equal to alloc(slot).
func (ix *refIndex) allocEqual(e *allocEntry, slot int, g *wire.Alloc) bool {
	if g.To != slot {
		return false
	}
	for k, sg := range allocSigs(g) {
		if !ix.equal(e.sigs[k], sg) {
			return false
		}
	}
	return true
}

// addAck indexes load-ack(slot) at h with Λ blocks[lo:hi].
func (ix *refIndex) addAck(slot int, h Hash, lo, hi int) {
	if slot < 0 || slot > maxRefSlot || at(ix.acks, slot).set {
		return
	}
	ix.acks = grow(ix.acks, slot)
	ix.acks[slot] = ackEntry{h: h, set: true, lo: lo, hi: hi}
}

// copyAtt appends a literal Λ to the block arena and returns its range.
func (ix *refIndex) copyAtt(att device.Attestation) (lo, hi int) {
	lo = len(ix.blocks)
	ix.blocks = append(ix.blocks, att.Blocks...)
	return lo, len(ix.blocks)
}

// tailOf returns the offset at which att is the tail of load-ack(slot)'s
// Λ, if it is one.
func (ix *refIndex) tailOf(slot int, att device.Attestation) (ackEntry, int, bool) {
	e := at(ix.acks, slot)
	if !e.set {
		return e, 0, false
	}
	base := ix.blocks[e.lo:e.hi]
	n := len(att.Blocks)
	if n > len(base) || !slices.Equal(base[len(base)-n:], att.Blocks) {
		return e, 0, false
	}
	return e, len(base) - n, true
}

// storeBill decides which sections of b reference what the index holds
// and appends each referent's address to parents, in section order.
func (ix *refIndex) storeBill(b *wire.Bill, refs *wire.BillRefs, parents []Hash) []Hash {
	j := b.From
	p := &b.Proof
	if e := at(ix.allocs, j); e.set && ix.allocEqual(&e, j, &p.G) {
		refs[wire.BillG] = wire.LedgerRef{Kind: uint8(KindAlloc), Field: wire.RefAlloc, Slot: j}
		parents = append(parents, e.h)
	}
	if e := at(ix.bids, j+1); e.set && ix.equal(e.sig, p.SuccBid) {
		refs[wire.BillSuccBid] = wire.LedgerRef{Kind: uint8(KindBid), Field: wire.RefBidSigned, Slot: j + 1}
		parents = append(parents, e.h)
	}
	if e := at(ix.allocs, j+1); e.set && ix.equal(e.sigs[3], p.OwnBid) {
		refs[wire.BillOwnBid] = wire.LedgerRef{Kind: uint8(KindAlloc), Field: wire.RefAllocPrevBid, Slot: j + 1}
		parents = append(parents, e.h)
	}
	if e := at(ix.acks, j); e.set && slices.Equal(ix.blocks[e.lo:e.hi], p.Att.Blocks) {
		refs[wire.BillAtt] = wire.LedgerRef{Kind: uint8(KindLoadAck), Field: wire.RefLoadAtt, Slot: j}
		parents = append(parents, e.h)
	}
	return parents
}

// preload indexes an artifact already in the log, as the recorder of a
// resumed round would have indexed it when it recorded it. A record it
// cannot read is left out: the verifier has flagged it.
func (ix *refIndex) preload(h Hash, rec Record) {
	switch rec.Kind {
	case KindBid:
		if b, _, err := wire.DecodeBid(rec.Payload); err == nil && len(b.Signed) == 1 {
			ix.addBid(rec.Slot, h, b.Signed[0])
		}
	case KindAlloc:
		if g, _, err := wire.DecodeAlloc(rec.Payload); err == nil && g.To == rec.Slot {
			ix.addAlloc(h, &g)
		}
	case KindLoadAck:
		if l, _, err := wire.DecodeLoad(rec.Payload); err == nil {
			lo, hi := ix.copyAtt(l.Att)
			ix.addAck(rec.Slot, h, lo, hi)
			return
		}
		sl, _, err := wire.DecodeStoredLoad(rec.Payload)
		if err != nil || len(rec.Parents) != 2 {
			return
		}
		if e := at(ix.acks, sl.Ref.Slot); e.set && e.h == rec.Parents[1] && sl.Ref.Offset <= e.hi-e.lo {
			ix.addAck(rec.Slot, h, e.lo+sl.Ref.Offset, e.hi)
		}
	}
}
