package protocol

import (
	"time"

	"dlsmech/internal/device"
	"dlsmech/internal/fault"
	"dlsmech/internal/parallel"
	"dlsmech/internal/sign"
)

// phaseEntry runs the injector's processor gates for phase ph: a Crash rule
// makes the goroutine exit silently (peers detect it through their receive
// timeouts or the Phase III barrier), a Stall rule pauses it. false means
// the processor is gone.
func (r *runner) phaseEntry(i int, ph fault.Phase) bool {
	if r.inj.CrashBefore(i, ph) {
		return false
	}
	if d := r.inj.StallBefore(i, ph); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.abort:
			return false
		}
	}
	return true
}

// In-transit corruption models for each message type. Evidence must stay
// immutable, so every mutation happens on a deep copy.

func corruptBid(v bidMsg) bidMsg {
	out := bidMsg{From: v.From}
	for _, s := range v.Signed {
		out.Signed = append(out.Signed, s.Clone())
	}
	if len(out.Signed) > 0 && len(out.Signed[0].Sig) > 0 {
		out.Signed[0].Sig[0] ^= 0x01
	}
	return out
}

func corruptG(v gMsg) gMsg {
	g := v.Clone()
	if len(g.Load.Sig) > 0 {
		g.Load.Sig[0] ^= 0x01
	}
	return g
}

// corruptLoad: on the Phase III plane the integrity carrier is the data
// itself, so corruption destroys the solution (Theorem 5.2) rather than
// failing a signature check.
func corruptLoad(v loadMsg) loadMsg {
	v.Corrupted = true
	return v
}

func corruptBill(v billMsg) billMsg {
	v.Proof.OwnBid = v.Proof.OwnBid.Clone()
	if len(v.Proof.OwnBid.Sig) > 0 {
		v.Proof.OwnBid.Sig[0] ^= 0x01
	}
	return v
}

// runProcessor executes Phases I-IV for processor i according to its
// behavior, using the shared step helpers in steps.go for all protocol
// computation and keeping only the chain plumbing (receives, sends, phase
// gates, barrier) here. Every early return is either preceded by an arbiter
// report (which wakes all peers via the abort channel), happens because the
// abort channel already fired, or is a silent injected crash that peers
// detect by timeout.
func (r *runner) runProcessor(i int) {
	b := r.behavior(i)
	m := r.size - 1
	defer r.endPhase(i)

	// ---- Phase I: equivalent bids flow from P_m toward the root. ----
	if !r.phaseEntry(i, fault.PhaseBid) {
		return
	}
	r.startPhase(i, fault.PhaseBid)
	var wbarSucc float64
	if i < m {
		bm, ok := recvMsg(r, i, i+1, fault.PhaseBid, r.bidUp[i+1])
		if !ok {
			return
		}
		if wbarSucc, ok = r.phase1Inbound(i, bm); !ok {
			return
		}
	}
	if out, send := r.phase1Compute(i, wbarSucc); send {
		if !sendMsg(r, r.resendBid, i, i-1, fault.PhaseBid, r.bidUp[i], out, corruptBid) {
			return
		}
	}

	// ---- Phase II: allocation messages G flow outward. ----
	if !r.phaseEntry(i, fault.PhaseAlloc) {
		return
	}
	r.startPhase(i, fault.PhaseAlloc)
	if i > 0 {
		g, ok := recvMsg(r, i, i-1, fault.PhaseAlloc, r.gDown[i])
		if !ok {
			return
		}
		if !r.phase2Inbound(i, g) {
			return
		}
	}
	r.phase2Plan(i)
	if i < m {
		if !sendMsg(r, r.resendG, i, i+1, fault.PhaseAlloc, r.gDown[i+1], r.phase2Build(i), corruptG) {
			return
		}
	}

	// Strategic desertion: take the allocation, then walk out before doing
	// any work. Economically a crash, but one committed by a signed bidder —
	// the timeout detector downstream gets it fined.
	if b.Faults.Desert {
		return
	}

	// ---- Phase III: load distribution with Λ attestations. ----
	if !r.phaseEntry(i, fault.PhaseLoad) {
		return
	}
	r.startPhase(i, fault.PhaseLoad)
	var att device.Attestation
	var received float64
	corrupted := false
	if i == 0 {
		// Mint into the session's block arena: tens of kB at fine Λ units,
		// allocated once per session instead of once per round.
		minted, ok := r.phase3Mint()
		if !ok {
			return
		}
		att, received = minted, 1
	} else {
		lm, ok := recvMsg(r, i, i-1, fault.PhaseLoad, r.loadDown[i])
		if !ok {
			return
		}
		received, att, corrupted = lm.Amount, lm.Att, lm.Corrupted
	}
	r.phase3Receipt(i, received, att)
	if out, send := r.phase3Route(i, received, att, corrupted); send {
		if !sendMsg(r, r.resendLoad, i, i+1, fault.PhaseLoad, r.loadDown[i+1], out, corruptLoad) {
			return
		}
	}
	if !r.phase3Certify(i) {
		return
	}
	r.phase3Grieve(i)

	// ---- Phase IV: compute own payment and bill it. ----
	if !r.phase3Barrier(i) {
		return
	}
	if !r.phaseEntry(i, fault.PhaseBill) {
		// Crash between computing and billing: the work is done, the bill
		// never arrives. finishExchange notices the gap post-hoc.
		return
	}
	r.startPhase(i, fault.PhaseBill)
	bill := r.phase4Bill(i, !r.corrupted.Load())
	if i == 0 {
		// The root bills itself locally; its bill never crosses the faulty
		// message plane.
		countedSend(r, 0, 0, fault.PhaseBill, r.bills, bill)
	} else {
		sendMsg(r, r.resendBill, i, 0, fault.PhaseBill, r.bills, bill, corruptBill)
	}
}

// phase3Barrier counts processors through the Phase III barrier; the last
// one opens it. The wait is bounded by the full recovery budget: a peer
// that crashed before reaching the barrier would otherwise deadlock every
// survivor, so on expiry the first missing processor is declared dead
// (which aborts the round and wakes everyone). false means the round is
// over for this processor.
func (r *runner) phase3Barrier(i int) bool {
	r.p3mu.Lock()
	if !r.p3seen[i] {
		r.p3seen[i] = true
		r.p3count++
		if r.p3count == r.size {
			close(r.p3done)
		}
	}
	r.p3mu.Unlock()

	t := getTimer(r.barrierBudget())
	defer putTimer(t)
	select {
	case <-r.p3done:
		return true
	case <-r.abort:
		return false
	case <-t.C:
		r.p3mu.Lock()
		missing := -1
		for j, seen := range r.p3seen {
			if !seen {
				missing = j
				break
			}
		}
		r.p3mu.Unlock()
		if missing >= 0 {
			r.arb.reportDead(i, missing, fault.PhaseLoad)
		}
		return false
	}
}

// expectSlot wraps messages.expectSlot with the verification counter.
func (r *runner) expectSlot(msg sign.Signed, wantSigner int, wantKind slotKind, wantIndex int) (float64, error) {
	r.countVerify()
	return expectSlot(r.pki, msg, wantSigner, wantKind, wantIndex)
}

// verifyBidBatch checks every signed copy of a Phase I bid message. The
// copies are independent, so the ed25519 checks fan out across workers when
// a contradictory sender supplies more than one; a single copy — the honest
// case — verifies inline with no goroutines. The returned error is that of
// the lowest-indexed failing copy, exactly what the sequential loop
// reported, and each copy counts as one logical verification regardless of
// where it ran (the A3 overhead table depends on that invariance).
func (r *runner) verifyBidBatch(signed []sign.Signed, wantSigner, wantIndex int) error {
	r.countVerifyN(int64(len(signed)))
	if len(signed) == 1 {
		// The honest case, out of the fan-out path: ForEach would run it
		// inline anyway, but the closure (and its captures) are a heap
		// allocation per receive the steady-state round does not need.
		_, err := expectSlot(r.pki, signed[0], wantSigner, slotEquivBid, wantIndex)
		return err
	}
	return parallel.ForEach(0, len(signed), func(k int) error {
		_, err := expectSlot(r.pki, signed[k], wantSigner, slotEquivBid, wantIndex)
		return err
	})
}

// verifyG wraps messages.verifyG with the verification counter (5 checks).
func (r *runner) verifyG(i int, g gMsg) (gValues, error) {
	r.countVerifyN(5)
	return verifyG(r.pki, i, g)
}

// meterRecord produces the root-signed meter reading for processor i via the
// session's sealed per-processor meter; a repeat measurement hits the root
// signer's memo.
func (r *runner) meterRecord(i int, wTilde, load float64) (device.MeterReading, error) {
	r.countSign()
	return r.meters[i].Record(wTilde, load)
}
