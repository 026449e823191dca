package protocol

import (
	"bytes"

	"dlsmech/internal/device"
	"dlsmech/internal/dlt"
	"dlsmech/internal/fault"
	"dlsmech/internal/sign"
)

// The per-processor protocol logic of the goroutine-per-node chain engine
// (runProcessor). Each step covers one phase's receive-side verification or
// send-side construction for one processor; all state lives in procState,
// and every grievance goes through the arbiter entry points.

// phase1Inbound verifies the successor's Phase I message for receiver i < m
// and returns w̄_{i+1}. false means the round ended for this processor (a
// grievance was filed or the message was rejected).
func (r *runner) phase1Inbound(i int, bm bidMsg) (wbarSucc float64, ok bool) {
	st := r.procs[i]
	if len(bm.Signed) == 0 {
		r.arb.reportBadSignature(i, i+1, fault.PhaseBid, "empty bid message")
		return 0, false
	}
	if err := r.verifyBidBatch(bm.Signed, i+1, i+1); err != nil {
		r.arb.reportBadSignature(i, i+1, fault.PhaseBid, "inauthentic bid: %v", err)
		return 0, false
	}
	// Contradiction: two authentic messages, different contents.
	if len(bm.Signed) >= 2 && !bytes.Equal(bm.Signed[0].Payload, bm.Signed[1].Payload) {
		st.terminated = true
		r.arb.reportContradiction(i, i+1, bm.Signed[0], bm.Signed[1])
		return 0, false
	}
	// No defensive copy: wire messages are immutable by convention — honest
	// signatures come from the signers' memos (shared, never written) and
	// the corrupt* injector mutators deep-copy before touching a byte.
	st.receivedBidMsg = bm.Signed[0]
	// Register the successor's commitment with the root: it is the
	// signed evidence that P_{i+1} joined the round, which the arbiter
	// needs when deciding whether a later disappearance is finable.
	r.arb.noteBid(i+1, bm.Signed[0])
	wbarSucc, _ = r.expectSlot(bm.Signed[0], i+1, slotEquivBid, i+1)
	return wbarSucc, true
}

// phase1Compute fixes processor i's declared bid and equivalent bid from the
// successor's w̄, and builds the outgoing signed bid message (send is false
// for the root, which bids to nobody).
func (r *runner) phase1Compute(i int, wbarSucc float64) (out bidMsg, send bool) {
	b := r.behavior(i)
	st := r.procs[i]
	net := r.params.Net
	m := r.size - 1

	bid := b.Bid(net.W[i])
	if i == 0 {
		bid = net.W[i] // the root is obedient
	}
	st.bid = bid
	st.wbarSucc = wbarSucc

	var hat, wbar float64
	if i == m {
		hat, wbar = 1, bid
	} else {
		hat, wbar = dlt.EquivTwo(bid, net.Z[i+1], wbarSucc)
	}
	st.hatPlanned = hat
	st.equivBid = wbar

	if i == 0 {
		return bidMsg{}, false
	}
	msgs := append(st.bidBuf[:0], r.signSlot(i, slotEquivBid, i, wbar))
	if b.Faults.ContradictoryBid {
		// Case (i) of Lemma 5.1: a second, different signed bid.
		msgs = append(msgs, r.signSlot(i, slotEquivBid, i, wbar*1.25))
	}
	st.bidBuf = msgs
	return bidMsg{From: i, Signed: msgs}, true
}

// phase2Inbound verifies G_i for receiver i > 0: signatures, the echo of our
// own bid, and the arithmetic identities (2.4). On success the committed
// values are stored in the procState; on failure the matching grievance has
// been filed and false is returned.
func (r *runner) phase2Inbound(i int, g gMsg) bool {
	st := r.procs[i]
	vals, err := r.verifyG(i, g)
	if err != nil {
		// Inauthentic or malformed: the sender of G is responsible for
		// delivering a verifiable message; exclude it without a fine.
		r.arb.reportBadSignature(i, i-1, fault.PhaseAlloc, "bad G message: %v", err)
		return false
	}
	st.gIn = g
	st.gVals = vals
	// Echo check: the predecessor must have echoed exactly the bid we
	// signed (byte-identical payload).
	var slotBuf [slotPayloadSize]byte
	if !bytes.Equal(g.EchoEquiv.Payload, appendSlot(slotBuf[:0], slotEquivBid, i, st.equivBid)) {
		st.terminated = true
		r.arb.reportEchoMismatch(i, g, st.equivBid)
		return false
	}
	if err := arithmeticConsistent(vals, r.params.Net.Z[i], wireTol); err != nil {
		// Case (ii): the predecessor's arithmetic does not hold.
		st.terminated = true
		r.arb.reportBadG(i, g)
		return false
	}
	st.planD = vals.Load
	st.prevBid = vals.PrevBid
	st.prevLoad = vals.PrevLoad
	return true
}

// phase2Plan derives processor i's allocation plan from D_i and α̂_i. The
// root plans against the whole workload.
func (r *runner) phase2Plan(i int) {
	st := r.procs[i]
	if i == 0 {
		st.planD = 1
	}
	st.planAlpha = float64(st.planD * st.hatPlanned)
	st.planDNext = st.planD - st.planAlpha
}

// phase2Build constructs G_{i+1}. Callers ensure i < m.
func (r *runner) phase2Build(i int) gMsg {
	b := r.behavior(i)
	st := r.procs[i]

	reportD := st.planDNext
	if b.Faults.MiscomputeD {
		// Case (ii): misreport the successor's load share.
		reportD *= 0.8
	}
	var prevLoadSig, prevEquivSig sign.Signed
	if i == 0 {
		prevLoadSig = r.signSlot(0, slotLoad, 0, 1)
		prevEquivSig = r.signSlot(0, slotEquivBid, 0, st.equivBid)
	} else {
		prevLoadSig = st.gIn.Load       // dsm_{i-1}(D_i)
		prevEquivSig = st.gIn.EchoEquiv // dsm_{i-1}(w̄_i)
	}
	g := gMsg{
		To:        i + 1,
		PrevLoad:  prevLoadSig,
		Load:      r.signSlot(i, slotLoad, i+1, reportD),
		PrevEquiv: prevEquivSig,
		PrevBid:   r.signSlot(i, slotBid, i, st.bid),
		EchoEquiv: r.signSlot(i, slotEquivBid, i+1, st.wbarSucc),
	}
	if r.sink != nil {
		r.sink.RecordAlloc(g)
	}
	return g
}

// phase3Mint mints the round's unit workload into the session block arena
// for the root. false means the round was terminated.
func (r *runner) phase3Mint() (device.Attestation, bool) {
	minted, err := r.issuer.MintInto(r.blockBuf[:0], 1)
	if err != nil {
		r.arb.terminateErr(phaseErr(ErrRuntime, 0, fault.PhaseLoad, "mint: %v", err))
		return device.Attestation{}, false
	}
	return minted, true
}

// phase3Route applies the Phase III retention rule for processor i given
// the inbound transfer and returns the outgoing transfer (send is true iff
// i < m). The outgoing message is built before any metering so the caller
// can forward it immediately and overlap the successor's work.
func (r *runner) phase3Route(i int, received float64, att device.Attestation, corrupted bool) (out loadMsg, send bool) {
	b := r.behavior(i)
	st := r.procs[i]
	m := r.size - 1
	st.received = received

	var retained float64
	if i == m {
		retained = received // nowhere to forward
	} else if b.RetainFactor != 0 && b.RetainFactor < 1 {
		// Case (iii): shed load onto the successor.
		retained = b.Retain(st.hatPlanned) * received
	} else {
		// Honest rule (Sect. 4 Phase III): forward the planned share and
		// compute everything else, including any excess dumped on us.
		retained = received - st.planDNext
		if retained < 0 {
			retained = received // under-supplied; keep what there is
		}
	}
	st.retained = retained
	forwarded := received - retained
	if i < m {
		headAtt, tailAtt := att.Split(retained, r.unit)
		_ = headAtt // the retained blocks; Λ_i below covers all received ids
		sendCorrupt := corrupted
		if b.Faults.CorruptData {
			// Theorem 5.2: destroy the solution without economic trace.
			sendCorrupt = true
			r.corrupted.Store(true)
		}
		out = loadMsg{Amount: forwarded, Att: tailAtt, Corrupted: sendCorrupt}
		send = true
	}
	if corrupted {
		r.corrupted.Store(true)
	}
	return out, send
}

// phase3Receipt archives the Λ evidence of processor i's Phase III receipt
// and records the receipt. It runs before i forwards anything, so that
// load-ack(i) is recorded before load-ack(i+1) can be: a recorder may store
// Λ_{i+1} as the tail of Λ_i.
func (r *runner) phase3Receipt(i int, received float64, att device.Attestation) {
	st := r.procs[i]
	// Λ_i: all identifiers received, copied into the procState arena (evidence
	// must be immutable, but the copy's storage is reused across rounds).
	st.attBuf = append(st.attBuf[:0], att.Blocks...)
	st.att = device.Attestation{Blocks: st.attBuf}
	if r.sink != nil {
		r.sink.RecordLoadAck(i, loadMsg{Amount: received, Att: st.att})
	}
}

// phase3Certify records the tamper-proof meter reading that certifies the
// actual execution. false means the round was terminated.
func (r *runner) phase3Certify(i int) bool {
	b := r.behavior(i)
	st := r.procs[i]
	wTilde := b.Speed(r.params.Net.W[i])
	st.wTilde = wTilde
	reading, err := r.meterRecord(i, wTilde, st.retained)
	if err != nil {
		r.arb.terminateErr(phaseErr(ErrRuntime, i, fault.PhaseLoad, "meter: %v", err))
		return false
	}
	st.meter = reading
	st.valuation = -st.retained * wTilde
	return true
}

// phase3Grieve files the overload grievance (case (iii) detection) once
// processing is done, with (G_i, Λ_i, dsm_0(w̃_i)) as evidence. Grievances
// are voluntary: a colluding victim may stay silent (experiment A11).
func (r *runner) phase3Grieve(i int) {
	b := r.behavior(i)
	st := r.procs[i]
	if i > 0 && st.received > st.planD+2*r.unit && !b.Faults.SuppressGrievance {
		r.arb.reportOverload(i, st.gIn, st.att, st.meter)
	} else if b.Faults.FalseAccuse && i > 0 {
		// Case (v): accuse the predecessor of dumping although the Λ
		// evidence cannot support it.
		r.arb.reportOverload(i, st.gIn, st.att, st.meter)
	}
}

// phase4Bill computes processor i's itemized bill (4.3)-(4.12) with its
// proof bundle.
func (r *runner) phase4Bill(i int, solutionFound bool) billMsg {
	b := r.behavior(i)
	st := r.procs[i]
	net := r.params.Net
	m := r.size - 1

	var bill billMsg
	bill.From = i
	if i == 0 {
		// (4.3): the root is reimbursed its measured cost.
		bill.Compensation = st.planAlpha * st.wTilde
	} else if st.retained > 0 {
		bill.Compensation = st.planAlpha * st.wTilde
		if st.retained >= st.planAlpha {
			bill.Recompense = (st.retained - st.planAlpha) * st.wTilde
		}
		var wHat float64
		switch {
		case i == m:
			wHat = st.wTilde // (4.10)
		case st.wTilde >= st.bid:
			wHat = st.hatPlanned * st.wTilde // (4.11) slower than bid
		default:
			wHat = st.equivBid // (4.11) faster than bid
		}
		hatPrev := st.gVals.PrevEquiv / st.gVals.PrevBid // (2.4), scale-free at any depth
		bill.Bonus = st.gVals.PrevBid - dlt.RealizedEquivTwo(hatPrev, st.gVals.PrevBid, net.Z[i], wHat)
		if r.params.Cfg.SolutionBonus > 0 && solutionFound {
			bill.Solution = r.params.Cfg.SolutionBonus
		}
		bill.Bonus += b.Faults.Overcharge // case (iv): inflate the bill
	}
	bill.Proof = proofBundle{
		G:       st.gIn,
		SuccBid: st.receivedBidMsg,
		OwnBid:  r.signSlot(i, slotBid, i, st.bid),
		Meter:   st.meter,
		Att:     st.att,
		HasSucc: i < m,
	}
	return bill
}
