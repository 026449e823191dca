package protocol

import (
	"bytes"
	"fmt"

	"dlsmech/internal/device"
	"dlsmech/internal/sign"
)

// runNode executes Phases I-IV for tree node i.
func (r *treeRunner) runNode(i int) {
	b := r.params.Profile[i]
	st := r.states[i]
	info := r.info[i]
	truth := info.node.W
	m := len(info.children)

	// ---- Phase I: subtree equivalents flow upward. ----
	bid := b.Bid(truth)
	if i == 0 {
		bid = truth
	}
	st.bid = bid

	childBidMsgs := make([]sign.Signed, m)
	st.childQ = make([]float64, m)
	for k, c := range info.children {
		bm, ok := treeRecv(r, r.bidUp[c])
		if !ok {
			return
		}
		if len(bm.Signed) == 0 {
			r.terminate(fmt.Sprintf("P%d: empty tree bid from P%d", i, c), true)
			return
		}
		for _, s := range bm.Signed {
			if _, err := r.expectSlot(s, c, slotEquivBid, c); err != nil {
				r.terminate(fmt.Sprintf("P%d: inauthentic tree bid from P%d: %v", i, c, err), true)
				return
			}
		}
		if len(bm.Signed) >= 2 && !bytes.Equal(bm.Signed[0].Payload, bm.Signed[1].Payload) {
			r.reportTreeContradiction(i, c, bm.Signed[0], bm.Signed[1])
			return
		}
		childBidMsgs[k] = bm.Signed[0].Clone()
		st.childQ[k], _ = r.expectSlot(bm.Signed[0], c, slotEquivBid, c)
	}

	st.alpha0, st.q = 1, bid
	if m > 0 {
		star, err := r.starFromBids(i, bid, st.childQ)
		if err != nil {
			r.terminate(fmt.Sprintf("P%d: star solve: %v", i, err), true)
			return
		}
		st.starAlloc = star
		st.alpha0, st.q = star.Alpha0, star.T
	}
	var ownBidMsg sign.Signed
	if i > 0 {
		ownBidMsg = r.signSlot(i, slotEquivBid, i, st.q)
		msgs := []sign.Signed{ownBidMsg}
		if b.Faults.ContradictoryBid {
			msgs = append(msgs, r.signSlot(i, slotEquivBid, i, st.q*1.25))
		}
		if !treeSend(r, r.bidUp[i], bidMsg{From: i, Signed: msgs}) {
			return
		}
	}

	// ---- Phase II: allocation messages H flow downward. ----
	var hIn hMsg
	var parentShareMsg sign.Signed
	if i == 0 {
		st.share = 1
		parentShareMsg = r.signSlot(0, slotLoad, 0, 1)
	} else {
		h, ok := treeRecv(r, r.hDown[i])
		if !ok {
			return
		}
		hIn = h.clone()
		share, _, _, _, stage, err := r.checkH(i, h, ownBidMsg)
		if stage != hStageOK || err != nil {
			r.reportBadH(i, h, ownBidMsg)
			return
		}
		st.share = share
		parentShareMsg = h.Share // grandparent commitment for our children
	}
	st.planAlpha = st.share * st.alpha0

	if m > 0 {
		parentBidMsg := r.signSlot(i, slotBid, i, bid)
		misfire := b.Faults.MiscomputeD
		for k, c := range info.children {
			childShare := st.share * st.starAlloc.Alpha[k]
			if misfire {
				childShare *= 0.8 // case (ii): misassign the child's load
				misfire = false   // only the first child, like the chain deviant
			}
			h := hMsg{
				to:          c,
				Share:       r.signSlot(i, slotLoad, c, childShare),
				ParentShare: parentShareMsg,
				ParentBid:   parentBidMsg,
				Siblings:    childBidMsgs,
			}
			if !treeSend(r, r.hDown[c], h) {
				return
			}
		}
	}

	// ---- Phase III: load and Λ attestations flow downward. ----
	var att device.Attestation
	var received float64
	corrupted := false
	if i == 0 {
		minted, err := r.issuer.Mint(1)
		if err != nil {
			r.terminate(fmt.Sprintf("P0: mint: %v", err), false)
			return
		}
		att, received = minted, 1
	} else {
		lm, ok := treeRecv(r, r.loadDown[i])
		if !ok {
			return
		}
		received, att, corrupted = lm.Amount, lm.Att, lm.Corrupted
	}
	st.received = received

	// Planned forwards per child; the honest rule keeps everything else
	// (including any dumped excess). A shedder keeps less and dumps its
	// shed work on its first child.
	plannedFwd := make([]float64, m)
	var fwdTotal float64
	for k := range info.children {
		plannedFwd[k] = st.share * st.starAlloc.Alpha[k]
		fwdTotal += plannedFwd[k]
	}
	var retained float64
	if m == 0 {
		retained = received
	} else if b.RetainFactor != 0 && b.RetainFactor < 1 {
		retained = b.Retain(st.alpha0) * st.share
		excess := received - retained - fwdTotal
		if excess > 0 {
			plannedFwd[0] += excess
		}
	} else {
		retained = received - fwdTotal
		if retained < 0 {
			retained = 0
		}
	}
	if m > 0 {
		head, rest := att.Split(retained, r.unit)
		_ = head
		sendCorrupt := corrupted || b.Faults.CorruptData
		if b.Faults.CorruptData {
			r.corrupted.Store(true)
		}
		for k, c := range info.children {
			var chunk device.Attestation
			if k == m-1 {
				chunk = rest
			} else {
				chunk, rest = rest.Split(plannedFwd[k], r.unit)
			}
			if !treeSend(r, r.loadDown[c], loadMsg{Amount: plannedFwd[k], Att: chunk, Corrupted: sendCorrupt}) {
				return
			}
		}
	}
	if corrupted {
		r.corrupted.Store(true)
	}

	wTilde := b.Speed(truth)
	st.wTilde = wTilde
	st.retained = retained
	st.valuation = -retained * wTilde
	r.countSign()
	reading, err := device.NewMeter(r.signers[0], i).Record(wTilde, retained)
	if err != nil {
		r.terminate(fmt.Sprintf("P%d: meter: %v", i, err), false)
		return
	}

	slack := float64(info.depth+1) * r.unit * 4
	if i > 0 && received > st.share+slack && !b.Faults.SuppressGrievance {
		r.reportTreeOverload(i, hIn, att.Clone(), reading, ownBidMsg)
	} else if b.Faults.FalseAccuse && i > 0 {
		r.reportTreeOverload(i, hIn, att.Clone(), reading, ownBidMsg)
	}

	// ---- Phase IV: billing. ----
	r.phase3Arrive()
	select {
	case <-r.p3done:
	case <-r.abort:
		return
	}
	solutionFound := !r.corrupted.Load()

	var bill treeBill
	bill.from = i
	if i == 0 {
		bill.compensation = st.planAlpha * wTilde
	} else if retained > 0 {
		bill.compensation = st.planAlpha * wTilde
		if retained >= st.planAlpha {
			bill.recompense = (retained - st.planAlpha) * wTilde
		}
		var qHat float64
		if wTilde >= bid {
			qHat = st.alpha0 * wTilde
		} else {
			qHat = st.q
		}
		// Realized parent star (same computation the audit re-runs).
		p := info.parent
		parentBid, _ := r.expectSlot(hIn.ParentBid, p, slotBid, p)
		sibQ := make([]float64, len(hIn.Siblings))
		pos := -1
		for k, sib := range r.info[p].children {
			sibQ[k], _ = r.expectSlot(hIn.Siblings[k], sib, slotEquivBid, sib)
			if sib == i {
				pos = k
			}
		}
		star, err := r.starFromBids(p, parentBid, sibQ)
		if err == nil {
			realized := star.Alpha0 * parentBid
			busy := 0.0
			for _, idx := range star.Order {
				c := r.info[p].children[idx]
				busy += star.Alpha[idx] * r.info[c].zIn
				cq := sibQ[idx]
				if idx == pos {
					cq = qHat
				}
				if f := busy + star.Alpha[idx]*cq; f > realized {
					realized = f
				}
			}
			bill.bonus = parentBid - realized
		}
		if r.params.Cfg.SolutionBonus > 0 && solutionFound {
			bill.solution = r.params.Cfg.SolutionBonus
		}
		bill.bonus += b.Faults.Overcharge
	}
	bill.proof = treeProof{
		h:         hIn,
		ownBid:    r.signSlot(i, slotBid, i, bid),
		ownEquiv:  ownBidMsg,
		childBids: childBidMsgs,
		meter:     reading,
		att:       att.Clone(),
	}
	treeSend(r, r.bills, bill)
}
