package wire

import (
	"bytes"
	"strings"
	"testing"

	"dlsmech/internal/device"
	"dlsmech/internal/sign"
)

// TestExpandStoredRebuildsFrames: a stored bill and a stored load ack
// expand, through the frames their references name, to exactly the bill
// and load frames they stand for, with every mix of literal and
// referenced bill sections; any other frame passes through unchanged.
func TestExpandStoredRebuildsFrames(t *testing.T) {
	t.Parallel()
	bill := sampleBill()
	own := sampleAlloc()
	own.To = 3
	own.PrevBid = bill.Proof.OwnBid
	receipt := Load{Amount: 0.5, Att: device.Attestation{Blocks: []device.Block{9, 8, 1, 2, 3}}}
	referents := [billSections][]byte{
		BillG:       AppendAlloc(nil, bill.Proof.G),
		BillSuccBid: AppendBid(nil, Bid{From: 3, Signed: []sign.Signed{bill.Proof.SuccBid}}),
		BillOwnBid:  AppendAlloc(nil, own),
		BillAtt:     AppendLoad(nil, receipt),
	}
	full := [billSections]LedgerRef{
		BillG:       {Kind: refKindAlloc, Field: RefAlloc, Slot: 2},
		BillSuccBid: {Kind: refKindBid, Field: RefBidSigned, Slot: 3},
		BillOwnBid:  {Kind: refKindAlloc, Field: RefAllocPrevBid, Slot: 3},
		BillAtt:     {Kind: refKindLoadAck, Field: RefLoadAtt, Slot: 2, Offset: 2},
	}
	want := AppendBill(nil, bill)
	for mask := 1; mask < 1<<billSections; mask++ {
		sb := StoredBill{Bill: bill}
		var order [][]byte
		for k := range full {
			if mask&(1<<k) != 0 {
				sb.Refs[k] = full[k]
				order = append(order, referents[k])
			}
		}
		stored := AppendStoredBill(nil, &sb)
		if len(stored) >= len(want) {
			t.Errorf("mask %04b: stored bill of %d bytes is no smaller than the %d-byte bill", mask, len(stored), len(want))
		}
		got, err := ExpandStored(nil, stored, func(k int) ([]byte, error) { return order[k], nil })
		if err != nil {
			t.Fatalf("mask %04b: %v", mask, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("mask %04b: expanded bill differs from the original", mask)
		}
	}

	fwd := Load{Amount: 0.25, Att: device.Attestation{Blocks: receipt.Att.Blocks[3:]}, Corrupted: true}
	sl := StoredLoad{Load: fwd, Ref: LedgerRef{Kind: refKindLoadAck, Field: RefLoadAtt, Slot: 1, Offset: 3}}
	got, err := ExpandStored(nil, AppendStoredLoad(nil, &sl), func(int) ([]byte, error) { return referents[BillAtt], nil })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, AppendLoad(nil, fwd)) {
		t.Fatal("expanded load differs from the original")
	}
	// The whole Λ referenced away: an empty attestation, as AppendLoad
	// writes one.
	sl.Ref.Offset, sl.Load.Att = len(receipt.Att.Blocks), device.Attestation{}
	got, err = ExpandStored(nil, AppendStoredLoad(nil, &sl), func(int) ([]byte, error) { return referents[BillAtt], nil })
	if err != nil || !bytes.Equal(got, AppendLoad(nil, sl.Load)) {
		t.Fatalf("empty tail: %v", err)
	}

	plain := AppendAlloc(nil, own)
	got, err = ExpandStored([]byte("x"), plain, nil)
	if err != nil || !bytes.Equal(got, append([]byte("x"), plain...)) {
		t.Fatalf("a plain frame did not pass through: %v", err)
	}
}

// TestExpandStoredRefusesBadReferents: a reference whose referent frame
// does not hold what it names fails the expansion.
func TestExpandStoredRefusesBadReferents(t *testing.T) {
	t.Parallel()
	short := AppendLoad(nil, Load{Att: device.Attestation{Blocks: []device.Block{1}}})
	sl := StoredLoad{Ref: LedgerRef{Kind: refKindLoadAck, Field: RefLoadAtt, Slot: 0, Offset: 2}}
	if _, err := ExpandStored(nil, AppendStoredLoad(nil, &sl), func(int) ([]byte, error) { return short, nil }); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("offset past the referent's Λ: %v", err)
	}
	sb := StoredBill{Refs: BillRefs{BillSuccBid: {Kind: refKindBid, Field: RefBidSigned, Slot: 1}}}
	two := AppendBid(nil, sampleBid())
	if _, err := ExpandStored(nil, AppendStoredBill(nil, &sb), func(int) ([]byte, error) { return two, nil }); err == nil {
		t.Fatal("a successor bid referencing a two-signature bid expanded")
	}
	if _, err := ExpandStored(nil, AppendStoredBill(nil, &sb), func(int) ([]byte, error) { return short, nil }); err == nil {
		t.Fatal("a successor bid referencing a load frame expanded")
	}
}

// TestStoredRefCanonical: a reference must name the field its section
// holds, that field's ledger kind, and an offset only for a Λ; a stored
// bill must reference at least one section.
func TestStoredRefCanonical(t *testing.T) {
	t.Parallel()
	for name, mut := range map[string]func(*LedgerRef){
		"wrong field": func(r *LedgerRef) { r.Field = RefAlloc },
		"wrong kind":  func(r *LedgerRef) { r.Kind = refKindAlloc },
		"no field":    func(r *LedgerRef) { *r = LedgerRef{} },
	} {
		sl := sampleStoredLoad()
		mut(&sl.Ref)
		if _, _, err := DecodeStoredLoad(AppendStoredLoad(nil, &sl)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	offset := StoredBill{Refs: BillRefs{BillSuccBid: {Kind: refKindBid, Field: RefBidSigned, Slot: 1, Offset: 1}}}
	if _, _, err := DecodeStoredBill(AppendStoredBill(nil, &offset)); err == nil {
		t.Error("a bid reference with an offset decoded")
	}
	none := StoredBill{Bill: sampleBill()}
	if _, _, err := DecodeStoredBill(AppendStoredBill(nil, &none)); err == nil {
		t.Error("a stored bill with no reference decoded")
	}
}
