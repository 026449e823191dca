package protocol

import (
	"fmt"
	"math"
	"sync"

	"dlsmech/internal/device"
	"dlsmech/internal/dlt"
	"dlsmech/internal/fault"
	"dlsmech/internal/obs"
	"dlsmech/internal/payment"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
	"dlsmech/internal/xrand"
)

// arbiter is the root's control plane: it receives evidence, substantiates
// claims from signatures and public knowledge alone, moves fines and
// rewards, and audits Phase IV bills. Calls are synchronous (the "control
// channel" to the root); a mutex serializes them.
type arbiter struct {
	r  *runner
	mu sync.Mutex

	terminated bool
	termReason string
	failure    *PhaseError
	detections []Detection
	// bids holds each processor's signed Phase I commitment, registered by
	// the predecessor that received it. It is the evidence that turns a later
	// disappearance into a finable deviation (Theorem 5.1): breaking a signed
	// commitment is attributable, vanishing before signing anything is not.
	bids map[int]sign.Signed
	// reported dedups unresponsive/bad-signature detections per offender:
	// several peers may declare the same processor dead.
	reported map[int]bool
}

func newArbiter(r *runner) *arbiter {
	if r.hooks == nil {
		r.hooks = obs.Nop{} // hand-built runners (tests) skip Run's setup
	}
	return &arbiter{r: r, bids: make(map[int]sign.Signed), reported: make(map[int]bool)}
}

// reset clears the arbiter for a new round, keeping map storage warm.
func (a *arbiter) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.terminated = false
	a.termReason = ""
	a.failure = nil
	a.detections = a.detections[:0]
	clear(a.bids)
	clear(a.reported)
}

func (a *arbiter) terminateLocked(reason string) {
	if a.terminated {
		return
	}
	a.terminated = true
	a.termReason = reason
	close(a.r.abort)
}

// terminateErr aborts the run with a typed failure record (idempotent; the
// first failure wins).
func (a *arbiter) terminateErr(e *PhaseError) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.terminateErrLocked(e)
}

func (a *arbiter) terminateErrLocked(e *PhaseError) {
	if a.terminated {
		return
	}
	a.failure = e
	a.terminateLocked(e.Error())
}

// noteBid registers processor j's signed Phase I equivalent bid with the
// root. Called by the predecessor at receive time, after verification.
func (a *arbiter) noteBid(j int, s sign.Signed) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Stored as-is: wire Signed values are immutable by convention (memo-owned
	// slices; injector mutators clone before touching bytes).
	if _, ok := a.bids[j]; !ok {
		a.bids[j] = s
		if a.r.sink != nil {
			a.r.sink.RecordBid(j, s)
		}
	}
}

// committed reports whether the root holds j's signed bid. Callers hold a.mu.
func (a *arbiter) committedLocked(j int) bool {
	_, ok := a.bids[j]
	return ok
}

// reportDead handles an exhausted timeout/retransmit budget: the reporter
// declares peer unresponsive in phase ph. If the root holds the peer's
// signed Phase I bid, the breached commitment is fined per Theorem 5.1 and
// the reporter (who did the detecting work) collects the fine; otherwise
// the peer is merely excluded. Either way the round terminates with a typed
// failure so the recovery driver knows whom to splice out.
func (a *arbiter) reportDead(reporter, peer int, ph fault.Phase) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.reported[peer] {
		a.reported[peer] = true
		if a.committedLocked(peer) {
			a.fineAndRewardLocked(ViolationUnresponsive, peer, reporter, 0)
		} else {
			a.detections = append(a.detections, Detection{
				Violation: ViolationUnresponsive,
				Offender:  peer,
				Reporter:  reporter,
			})
		}
	}
	a.terminateErrLocked(phaseErr(ErrUnresponsive, peer, ph,
		"unresponsive (declared dead by P%d, retry budget exhausted)", reporter))
}

// reportBadSignature handles a message that failed verification. Transit
// corruption is indistinguishable from sender misbehavior, so the offender
// is excluded (typed failure → the recovery driver splices it out) but not
// fined.
func (a *arbiter) reportBadSignature(reporter, offender int, ph fault.Phase, format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.reported[offender] {
		a.reported[offender] = true
		a.detections = append(a.detections, Detection{
			Violation: ViolationBadSignature,
			Offender:  offender,
			Reporter:  reporter,
		})
	}
	a.terminateErrLocked(phaseErr(ErrBadSignature, offender, ph, format, args...))
}

// reportMissingBill handles a processor whose Phase III work completed but
// whose Phase IV bill never arrived (even after a retransmission request).
// Post-hoc: the load is already computed, so the round still completes; the
// deserter just forfeits payment and — having signed a bid — is fined.
func (a *arbiter) reportMissingBill(j int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.reported[j] {
		return
	}
	a.reported[j] = true
	if a.committedLocked(j) {
		a.fineAndRewardLocked(ViolationUnresponsive, j, 0, 0)
	} else {
		a.detections = append(a.detections, Detection{
			Violation: ViolationUnresponsive,
			Offender:  j,
			Reporter:  0,
		})
	}
}

// fineAndReward moves F from the offender to the reporter and records the
// detection. extraFine (≥ 0) is additionally collected by the mechanism
// (the Phase III work reimbursement F + extra·w̃).
func (a *arbiter) fineAndRewardLocked(v Violation, offender, reporter int, extraFine float64) {
	cfg := a.r.params.Cfg
	_ = a.r.ledger.Transfer(offender, reporter, cfg.Fine, payment.KindFine, string(v))
	if extraFine > 0 {
		_ = a.r.ledger.Fine(offender, extraFine, payment.KindFine, string(v)+"-work")
	}
	a.detections = append(a.detections, Detection{
		Violation: v,
		Offender:  offender,
		Reporter:  reporter,
		Fine:      cfg.Fine + extraFine,
		Reward:    cfg.Fine,
	})
	a.r.hooks.OnFine(offender, reporter, string(v), cfg.Fine+extraFine)
}

// reportContradiction arbitrates case (i): the reporter submits two signed
// messages it claims are contradictory bids from the accused. The claim is
// substantiated by the PKI alone (Lemma 5.2); an unsubstantiated claim fines
// the reporter instead. Either way the chain is broken, so the run ends.
func (a *arbiter) reportContradiction(reporter, accused int, m1, m2 sign.Signed) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.r.countVerifyN(2)
	if m1.SignerID == accused && a.r.pki.Contradiction(m1, m2) {
		a.fineAndRewardLocked(ViolationContradiction, accused, reporter, 0)
		a.terminateErrLocked(phaseErr(ErrArbitration, accused, fault.PhaseBid,
			"sent contradictory bids"))
		return
	}
	a.fineAndRewardLocked(ViolationFalseAccuse, reporter, accused, 0)
	a.terminateErrLocked(phaseErr(ErrArbitration, reporter, fault.PhaseBid,
		"falsely accused P%d of contradiction", accused))
}

// reportBadG arbitrates case (ii): the reporter submits G_i claiming the
// arithmetic does not hold. The root re-runs exactly the receiver's checks
// on the signed values plus the public z_i.
func (a *arbiter) reportBadG(reporter int, g gMsg) {
	a.mu.Lock()
	defer a.mu.Unlock()
	accused := reporter - 1
	a.r.countVerifyN(5)
	vals, err := verifyG(a.r.pki, reporter, g)
	if err != nil {
		// The evidence itself is inauthentic: cannot substantiate.
		a.fineAndRewardLocked(ViolationFalseAccuse, reporter, accused, 0)
		a.terminateErrLocked(phaseErr(ErrArbitration, reporter, fault.PhaseAlloc,
			"submitted inauthentic G evidence"))
		return
	}
	if err := arithmeticConsistent(vals, a.r.params.Net.Z[reporter], wireTol); err != nil {
		a.fineAndRewardLocked(ViolationWrongCompute, accused, reporter, 0)
		a.terminateErrLocked(phaseErr(ErrArbitration, accused, fault.PhaseAlloc,
			"miscomputed the allocation: %v", err))
		return
	}
	a.fineAndRewardLocked(ViolationFalseAccuse, reporter, accused, 0)
	a.terminateErrLocked(phaseErr(ErrArbitration, reporter, fault.PhaseAlloc,
		"falsely accused P%d of wrong computation", accused))
}

// reportEchoMismatch arbitrates the bid-echo dispute: the reporter claims
// the predecessor echoed a bid the reporter never made. The predecessor's
// echo and the reporter's Phase I message are both signed; the root
// subpoenas the bid message the predecessor actually received (stored in
// its procState) and decides:
//
//   - predecessor's stored inbound bid matches its echo → the reporter must
//     have signed two different bids → reporter fined (contradiction);
//   - stored inbound bid differs from the echo (or is absent/invalid) → the
//     predecessor fabricated the echo → predecessor fined.
func (a *arbiter) reportEchoMismatch(reporter int, g gMsg, claimedBid float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	accused := reporter - 1
	stored := a.r.procs[accused].receivedBidMsg
	a.r.countVerifyN(2)
	storedOK := a.r.pki.Verify(stored) == nil && stored.SignerID == reporter
	echoMatchesStored := false
	if storedOK {
		_, idx, v, err := decodeSlot(stored.Payload)
		if err == nil && idx == reporter {
			_, _, echoed, err2 := decodeSlot(g.EchoEquiv.Payload)
			echoMatchesStored = err2 == nil && v == echoed
		}
	}
	if storedOK && echoMatchesStored {
		// The predecessor faithfully echoed what it received; the reporter
		// is disowning its own signature.
		a.fineAndRewardLocked(ViolationContradiction, reporter, accused, 0)
		a.terminateErrLocked(phaseErr(ErrArbitration, reporter, fault.PhaseAlloc,
			"disowned its own signed bid"))
		return
	}
	a.fineAndRewardLocked(ViolationWrongCompute, accused, reporter, 0)
	a.terminateErrLocked(phaseErr(ErrArbitration, accused, fault.PhaseAlloc,
		"echoed a bid P%d never made", reporter))
}

// reportOverload arbitrates case (iii), after processing completes:
// Grievance_{i} = (G_i, Λ_i, dsm_0(w̃_i)). Substantiation needs (a) a valid
// G_i establishing the planned D_i, (b) a valid Λ_i proving the received
// amount, and (c) a valid meter reading for the recompense arithmetic. A
// false claim fines the reporter. The run continues either way.
func (a *arbiter) reportOverload(reporter int, g gMsg, att device.Attestation, meter device.MeterReading) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.r.sink != nil {
		a.r.sink.RecordGrievance(wire.Grievance{Reporter: reporter, G: g, Att: att, Meter: meter})
	}
	accused := reporter - 1
	a.r.countVerifyN(7)
	vals, err := verifyG(a.r.pki, reporter, g)
	valid := err == nil
	var provedReceived float64
	if valid {
		provedReceived, err = a.r.issuer.Verify(att)
		valid = err == nil
	}
	if valid {
		valid = device.VerifyReading(a.r.pki, 0, meter) == nil && meter.Proc == reporter
	}
	// Λ block splits round the retained head down at every hop, so an
	// honestly forwarded attestation can over-prove by up to one block per
	// upstream hop. The substantiation threshold budgets that slack; a real
	// shed moves load orders of magnitude above it.
	slack := float64(reporter+1) * a.r.unit
	if valid && provedReceived > vals.Load+slack {
		extra := provedReceived - vals.Load
		a.fineAndRewardLocked(ViolationOverload, accused, reporter, extra*meter.WTilde)
		return
	}
	a.fineAndRewardLocked(ViolationFalseAccuse, reporter, accused, 0)
}

// resolveBills resolves all Phase IV bills in deterministic (processor)
// order: flip the audit coin and, when it audits, recompute the bill from
// its proof. Resolution is stage A of the settlement split — it must run
// before the next round's exchange because recomputeBill reads the Λ issuer
// and the per-processor attestation arenas, which resetRound clobbers. The
// journaling the verdicts imply is stage B (settleJob.settle) and can run
// arbitrarily later. The sort is a plain insertion sort: finishExchange
// hands the bills over already ordered (O(n) here), and sort.Slice's
// reflective swapper would be the settlement path's only allocation.
func (a *arbiter) resolveBills(bills []billMsg, solutionFound bool, verdicts []billVerdict) []billVerdict {
	for i := 1; i < len(bills); i++ {
		for j := i; j > 0 && bills[j].From < bills[j-1].From; j-- {
			bills[j], bills[j-1] = bills[j-1], bills[j]
		}
	}
	for _, b := range bills {
		verdicts = append(verdicts, a.resolveBill(b, solutionFound))
	}
	return verdicts
}

// resolveBill runs the audit lottery for one bill and, on an audit,
// recomputes what the proof supports. The returned verdict carries
// everything the deferred journaling needs; Proof is zeroed because it
// aliases round-pooled arenas the next exchange overwrites.
func (a *arbiter) resolveBill(b billMsg, solutionFound bool) billVerdict {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.r
	cfg := r.params.Cfg
	j := b.From
	v := billVerdict{bill: b}
	v.bill.Proof = proofBundle{}
	if j == 0 {
		// The root is obedient; its reimbursement is not audited.
		return v
	}
	rng := xrand.Seeded(r.params.Seed ^ (uint64(j)+1)*0x9e3779b97f4a7c15)
	if rng.Float64() >= cfg.AuditProb {
		return v
	}
	v.audited = true
	want, err := a.recomputeBill(b, solutionFound)
	v.proofOK = err == nil
	v.failed = err != nil || b.Total() > want.Total()+wireTol
	v.want = want
	return v
}

// recomputeBill independently derives Q_j from Proof_j (4.12): the signed
// commitments in G_j, the successor's signed equivalent bid, the processor's
// own signed bid, the root-signed meter reading, and Λ_j. Only public link
// times z enter beyond the proof.
func (a *arbiter) recomputeBill(b billMsg, solutionFound bool) (billMsg, error) {
	r := a.r
	j := b.From
	cfg := r.params.Cfg
	m := r.size - 1
	r.countVerifyN(8)

	vals, err := verifyG(r.pki, j, b.Proof.G)
	if err != nil {
		return billMsg{}, fmt.Errorf("proof G_%d: %w", j, err)
	}
	if device.VerifyReading(r.pki, 0, b.Proof.Meter) != nil || b.Proof.Meter.Proc != j {
		return billMsg{}, fmt.Errorf("proof meter for P%d invalid", j)
	}
	received, err := r.issuer.Verify(b.Proof.Att)
	if err != nil {
		return billMsg{}, fmt.Errorf("proof Λ_%d: %w", j, err)
	}
	bid, err := expectSlot(r.pki, b.Proof.OwnBid, j, slotBid, j)
	if err != nil {
		return billMsg{}, fmt.Errorf("proof own bid: %w", err)
	}

	wTilde := b.Proof.Meter.WTilde
	retained := b.Proof.Meter.Load
	if retained > received+2*r.unit {
		return billMsg{}, fmt.Errorf("metered load %v exceeds attested receipt %v", retained, received)
	}

	// Reconstruct the planned share α_j = D_j·α̂_j.
	var hat, wbar float64
	if !b.Proof.HasSucc || j == m {
		hat, wbar = 1, bid
	} else {
		succ, err := expectSlot(r.pki, b.Proof.SuccBid, j+1, slotEquivBid, j+1)
		if err != nil {
			return billMsg{}, fmt.Errorf("proof successor bid: %w", err)
		}
		hat, wbar = dlt.EquivTwo(bid, r.params.Net.Z[j+1], succ)
	}
	planAlpha := vals.Load * hat

	var want billMsg
	want.From = j
	if retained <= 0 {
		return want, nil // (4.6): Q_j = 0
	}
	want.Compensation = planAlpha * wTilde
	if retained >= planAlpha-wireTol {
		want.Recompense = math.Max(0, retained-planAlpha) * wTilde
	}
	var wHat float64
	switch {
	case j == m:
		wHat = wTilde
	case wTilde >= bid:
		wHat = hat * wTilde
	default:
		wHat = wbar
	}
	hatPrev := vals.PrevEquiv / vals.PrevBid // (2.4), scale-free at any depth
	want.Bonus = vals.PrevBid - dlt.RealizedEquivTwo(hatPrev, vals.PrevBid, r.params.Net.Z[j], wHat)
	if cfg.SolutionBonus > 0 && solutionFound {
		want.Solution = cfg.SolutionBonus
	}
	return want, nil
}

// takeBill records a drained Phase IV bill in the collection arenas; the
// first bill per sender wins (duplicated copies from injected Duplicate
// rules are dropped, exactly like the single-slot receives on the chain
// planes).
func (r *runner) takeBill(b billMsg) {
	if b.From >= 0 && b.From < r.size && !r.billSeen[b.From] {
		r.billSeen[b.From] = true
		r.billSlot[b.From] = b
	}
}

// finishExchange is stage A of the settlement split: drain the bill plane,
// recover missing bills, resolve every audit (the lottery and the proof
// recomputation read round-pooled state), and snapshot everything stage B
// (settleJob.settle — journaling, Result assembly, the plan solve) needs.
// After finishExchange returns, the runner may be reset for the next round
// while the job settles concurrently.
func (r *runner) finishExchange(job *settleJob) {
	// Drain whatever bills made it; the channel is never closed because late
	// retransmissions may still land on it.
drain:
	for {
		select {
		case b := <-r.bills:
			r.takeBill(b)
		default:
			break drain
		}
	}
	if !r.arb.terminated {
		// Post-hoc bill recovery: a processor that computed its share but
		// whose bill was lost (or who crashed right before billing) leaves a
		// gap here. Ask for a retransmission, wait one timeout, and write a
		// detection for whoever stays silent — the load is done, so the run
		// still completes.
		var missing []int
		for j := 1; j < r.size; j++ {
			if !r.billSeen[j] {
				missing = append(missing, j)
				r.tryResend(j, 0, fault.PhaseBill)
			}
		}
		if len(missing) > 0 {
			deadline := getTimer(r.rec.Timeout)
		regain:
			for {
				still := missing[:0]
				for _, j := range missing {
					if !r.billSeen[j] {
						still = append(still, j)
					}
				}
				missing = still
				if len(missing) == 0 {
					break regain
				}
				select {
				case b := <-r.bills:
					r.takeBill(b)
				case <-deadline.C:
					break regain
				}
			}
			putTimer(deadline)
			for _, j := range missing {
				r.arb.reportMissingBill(j)
			}
		}
	}
	bills := r.billList[:0]
	for j := 0; j < r.size; j++ {
		if r.billSeen[j] {
			bills = append(bills, r.billSlot[j])
		}
	}
	r.billList = bills
	// Bills are recorded last, in slot order, once every other artifact of
	// the round is: a recorder may store a proof section as a reference to
	// the artifact that already holds its bytes.
	if r.sink != nil {
		for _, b := range bills {
			r.sink.RecordBill(b)
		}
	}
	solutionFound := !r.corrupted.Load() && !r.arb.terminated
	job.verdicts = job.verdicts[:0]
	if !r.arb.terminated {
		job.verdicts = r.arb.resolveBills(bills, solutionFound, job.verdicts)
	}

	// Snapshot everything stage B reads. The arenas (verdicts, detections,
	// z) are job-pooled; the ledger and the result slices are fresh per
	// round because they escape into the Result — resetRound hands the
	// runner a new ledger, so the settle owns this one outright. The memo
	// tables are session-lifetime and immutable, shared by reference.
	job.size = r.size
	job.cfg = r.params.Cfg
	job.hooks = r.hooks
	job.ledger = r.ledger
	job.memoC, job.memoE, job.memoB, job.memoS = r.memoC, r.memoE, r.memoB, r.memoS
	job.terminated = r.arb.terminated
	job.termReason = r.arb.termReason
	job.failure = r.arb.failure
	job.solutionFound = solutionFound
	job.stats = Stats{
		Messages:      r.stats.Messages,
		Signatures:    r.stats.Signatures,
		Verifications: r.stats.Verifications,
	}
	job.detections = append(job.detections[:0], r.arb.detections...)
	job.z = append(job.z[:0], r.params.Net.Z...)
	job.bids = make([]float64, r.size)
	job.retained = make([]float64, r.size)
	job.utilities = make([]float64, r.size)
	// A round that fails in Phase I or II distributes no load (see
	// Result.Completed). Processors upstream of the failure may already have
	// started Phase III when the abort reached them; that work is void and
	// is not reported, or a terminated round's retained loads and utilities
	// would depend on how far the abort raced.
	void := r.arb.failure != nil && r.arb.failure.Phase < fault.PhaseLoad
	for i, st := range r.procs {
		job.bids[i] = st.bid
		if !void {
			job.retained[i] = st.retained
			job.utilities[i] = st.valuation
		}
	}
}
