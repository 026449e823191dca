package protocol

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/device"
	"dlsmech/internal/dlt"
	"dlsmech/internal/payment"
	"dlsmech/internal/sign"
	"dlsmech/internal/xrand"
)

// The distributed realization of DLS-T, the tree-network mechanism (the
// paper's future work, economics in internal/core/treemech.go). The chain
// protocol generalizes hop-for-hop:
//
// Phase I   — subtree equivalents q flow from the leaves to the root; each
//             node solves its equal-finish star over its children's signed
//             bids and signs the result upward.
// Phase II  — allocation messages H flow downward. H for child c carries the
//             parent's signed share assignment for c, the grandparent's
//             commitment to the parent's own share, the parent's signed bid
//             and the ORIGINAL signed bids of all of c's siblings — enough
//             for c to re-run the star arithmetic and file a provable
//             grievance when it fails.
// Phase III — the load flows down with Λ attestation splits per child; a
//             node that receives more than its committed share computes the
//             excess and grieves with (H, Λ, meter), exactly like the chain.
// Phase IV  — every node computes its own DLS-T payment and bills it with a
//             proof bundle; the root audits with probability q.
//
// On a chain-shaped tree (every node one child) the runtime prices runs
// identically to the chain protocol (tested).

// TreeParams configures one tree-protocol run. Profile and result vectors
// are indexed by the preorder position (TreeNode.Flatten()); index 0 is the
// obedient root.
type TreeParams struct {
	Root       *dlt.TreeNode
	Profile    agent.Profile
	Cfg        core.Config
	Seed       uint64
	LambdaUnit float64 // 0 means 1/4096
}

// TreeResult is the outcome of a tree-protocol run.
type TreeResult struct {
	Completed     bool
	TermReason    string
	Bids          []float64 // declared per-unit times, preorder
	Retained      []float64 // load actually computed, preorder (all zero when the run failed in Phase I/II)
	Detections    []Detection
	Ledger        *payment.Ledger
	Utilities     []float64
	SolutionFound bool
	Stats         Stats
}

// DetectionsFor filters detections by offender.
func (r *TreeResult) DetectionsFor(i int) []Detection {
	var out []Detection
	for _, d := range r.Detections {
		if d.Offender == i {
			out = append(out, d)
		}
	}
	return out
}

// hMsg is the Phase II message to child c (preorder index `to`):
//
//	Share       = dsm_parent(slotLoad, c, global share of c's subtree)
//	ParentShare = dsm_grandparent(slotLoad, parent, parent's own share)
//	ParentBid   = dsm_parent(slotBid, parent, w_parent)
//	Siblings    = the ORIGINAL Phase I bids dsm_k(slotEquivBid, k, q_k) of
//	              every child of the parent (including c itself — the echo).
type hMsg struct {
	to          int
	Share       sign.Signed
	ParentShare sign.Signed
	ParentBid   sign.Signed
	Siblings    []sign.Signed
}

func (h hMsg) clone() hMsg {
	out := hMsg{
		to:          h.to,
		Share:       h.Share.Clone(),
		ParentShare: h.ParentShare.Clone(),
		ParentBid:   h.ParentBid.Clone(),
	}
	for _, s := range h.Siblings {
		out.Siblings = append(out.Siblings, s.Clone())
	}
	return out
}

// treeNodeInfo is the static topology metadata of one node.
type treeNodeInfo struct {
	node     *dlt.TreeNode
	parent   int   // -1 for the root
	children []int // preorder indices
	zIn      float64
	depth    int
}

// treeBill is the Phase IV bill with its proof bundle.
type treeBill struct {
	from         int
	compensation float64
	recompense   float64
	bonus        float64
	solution     float64
	proof        treeProof
}

func (b treeBill) total() float64 {
	return b.compensation + b.recompense + b.bonus + b.solution
}

// treeProof is everything the root needs to recompute Q for one node.
type treeProof struct {
	h         hMsg                // zero value for the root
	ownBid    sign.Signed         // dsm_i(slotBid, i, w_i)
	ownEquiv  sign.Signed         // dsm_i(slotEquivBid, i, q_i) — the Phase I message (echo anchor)
	childBids []sign.Signed       // the node's own children's Phase I messages
	meter     device.MeterReading // dsm_0(w̃_i, α̃_i)
	att       device.Attestation  // Λ_i
}

type treeRunner struct {
	params TreeParams
	info   []treeNodeInfo
	size   int
	unit   float64

	pki     *sign.PKI
	signers []*sign.Signer
	issuer  *device.Issuer
	ledger  *payment.Ledger

	bidUp    []chan bidMsg
	hDown    []chan hMsg
	loadDown []chan loadMsg
	bills    chan treeBill

	states []*treeNodeState
	abort  chan struct{}

	p3mu    sync.Mutex
	p3count int
	p3done  chan struct{}

	corrupted atomic.Bool
	stats     Stats

	arbMu      sync.Mutex
	terminated bool
	termReason string
	// void marks a termination in Phase I or II: no load was distributed,
	// so collect reports no Phase III work (see terminate).
	void       bool
	detections []Detection
}

// treeNodeState is the per-node scratchpad.
type treeNodeState struct {
	bid       float64
	q         float64 // own subtree equivalent from bids
	alpha0    float64 // local star fraction retained (1 for leaves)
	starAlloc *dlt.StarAllocation
	share     float64 // global subtree share from Phase II
	planAlpha float64
	received  float64
	retained  float64
	wTilde    float64
	valuation float64
	childQ    []float64 // children equivalents from Phase I
}

// RunTree executes the DLS-T protocol.
func RunTree(p TreeParams) (*TreeResult, error) {
	if err := p.Root.Validate(); err != nil {
		return nil, err
	}
	if err := p.Cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := p.Root.Flatten()
	size := len(nodes)
	if len(p.Profile) != size {
		return nil, fmt.Errorf("protocol: %d behaviors for %d tree nodes", len(p.Profile), size)
	}
	if !p.Profile[0].IsHonest() {
		return nil, fmt.Errorf("protocol: the tree root is obedient; profile[0] must be honest")
	}
	unit := p.LambdaUnit
	if unit == 0 {
		unit = 1.0 / 4096
	}
	if !(unit > 0) || unit > 1 {
		return nil, fmt.Errorf("protocol: invalid lambda unit %v", unit)
	}

	r := &treeRunner{params: p, size: size, unit: unit}
	// Topology metadata.
	index := make(map[*dlt.TreeNode]int, size)
	for i, node := range nodes {
		index[node] = i
	}
	r.info = make([]treeNodeInfo, size)
	for i, node := range nodes {
		r.info[i].node = node
		if i == 0 {
			r.info[i].parent = -1
		}
		for _, e := range node.Children {
			c := index[e.Node]
			r.info[i].children = append(r.info[i].children, c)
			r.info[c].parent = i
			r.info[c].zIn = e.Z
			r.info[c].depth = r.info[i].depth + 1
		}
	}

	r.pki = sign.NewPKI()
	for i := 0; i < size; i++ {
		s := sign.NewSigner(i, p.Seed)
		r.signers = append(r.signers, s)
		r.pki.MustRegister(i, s.Public())
	}
	var err error
	r.issuer, err = device.NewIssuer(unit, xrand.New(p.Seed^0x54524545 /* "TREE" */))
	if err != nil {
		return nil, err
	}
	r.ledger = payment.NewLedger()
	r.abort = make(chan struct{})
	r.p3done = make(chan struct{})
	r.bidUp = make([]chan bidMsg, size)
	r.hDown = make([]chan hMsg, size)
	r.loadDown = make([]chan loadMsg, size)
	for i := 1; i < size; i++ {
		r.bidUp[i] = make(chan bidMsg, 2)
		r.hDown[i] = make(chan hMsg, 1)
		r.loadDown[i] = make(chan loadMsg, 1)
	}
	r.bills = make(chan treeBill, size)
	r.states = make([]*treeNodeState, size)
	for i := range r.states {
		r.states[i] = &treeNodeState{}
	}

	var wg sync.WaitGroup
	for i := 0; i < size; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.runNode(i)
		}(i)
	}
	wg.Wait()
	close(r.bills)
	return r.collect(), nil
}

func (r *treeRunner) countSign()           { atomic.AddInt64(&r.stats.Signatures, 1) }
func (r *treeRunner) countVerifyN(n int64) { atomic.AddInt64(&r.stats.Verifications, n) }
func (r *treeRunner) countMsg()            { atomic.AddInt64(&r.stats.Messages, 1) }

func (r *treeRunner) signSlot(i int, kind slotKind, index int, value float64) sign.Signed {
	r.countSign()
	return r.signers[i].Sign(encodeSlot(kind, index, value))
}

func (r *treeRunner) expectSlot(msg sign.Signed, signer int, kind slotKind, index int) (float64, error) {
	r.countVerifyN(1)
	return expectSlot(r.pki, msg, signer, kind, index)
}

func treeSend[T any](r *treeRunner, ch chan T, v T) bool {
	select {
	case ch <- v:
		r.countMsg()
		return true
	case <-r.abort:
		return false
	}
}

func treeRecv[T any](r *treeRunner, ch chan T) (T, bool) {
	select {
	case v := <-ch:
		return v, true
	case <-r.abort:
		var zero T
		return zero, false
	}
}

func (r *treeRunner) phase3Arrive() {
	r.p3mu.Lock()
	r.p3count++
	if r.p3count == r.size {
		close(r.p3done)
	}
	r.p3mu.Unlock()
}

// terminate aborts the run (idempotent: the first termination wins).
// early marks a Phase I/II failure. Nodes upstream of such a failure may
// already have started Phase III when the abort reached them; that work is
// void, or a terminated run's retained loads and utilities would depend on
// how far the abort raced.
func (r *treeRunner) terminate(reason string, early bool) {
	r.arbMu.Lock()
	defer r.arbMu.Unlock()
	r.terminateLocked(reason, early)
}

func (r *treeRunner) terminateLocked(reason string, early bool) {
	if r.terminated {
		return
	}
	r.terminated = true
	r.termReason = reason
	r.void = early
	close(r.abort)
}

func (r *treeRunner) fineAndRewardLocked(v Violation, offender, reporter int, extra float64) {
	cfg := r.params.Cfg
	_ = r.ledger.Transfer(offender, reporter, cfg.Fine, payment.KindFine, string(v))
	if extra > 0 {
		_ = r.ledger.Fine(offender, extra, payment.KindFine, string(v)+"-work")
	}
	r.detections = append(r.detections, Detection{
		Violation: v, Offender: offender, Reporter: reporter,
		Fine: cfg.Fine + extra, Reward: cfg.Fine,
	})
}

// starFromBids rebuilds a parent's star from its bid and children's signed
// equivalents (public link times).
func (r *treeRunner) starFromBids(parent int, parentBid float64, childQ []float64) (*dlt.StarAllocation, error) {
	info := r.info[parent]
	star := &dlt.Star{W0: parentBid}
	for k, c := range info.children {
		star.W = append(star.W, childQ[k])
		star.Z = append(star.Z, r.info[c].zIn)
	}
	return dlt.SolveStarBestOrder(star)
}

// hStage classifies how far an H message gets through verification.
type hStage int

const (
	hStageSig   hStage = iota // signatures/shape invalid — unattributable
	hStageEcho                // valid sigs but the echo disowns the child
	hStageArith               // valid sigs + echo, arithmetic inconsistent
	hStageOK
)

// checkH verifies H for child c and reports the failure stage. Stage
// matters for attribution: a sig-level failure cannot incriminate the
// parent (anyone can fabricate garbage), an echo failure incriminates the
// CHILD (the embedded sibling entry verifies under the child's own key, so
// a mismatch means the child signed two bids), and an arithmetic failure
// incriminates the parent (it signed inconsistent commitments).
func (r *treeRunner) checkH(c int, h hMsg, ownBidMsg sign.Signed) (share, parentShare, parentBid float64, sibQ []float64, stage hStage, err error) {
	p := r.info[c].parent
	gp := r.info[p].parent
	gpSigner := gp
	if gp < 0 {
		gpSigner = 0 // the root self-certifies its unit share
	}
	if share, err = r.expectSlot(h.Share, p, slotLoad, c); err != nil {
		return 0, 0, 0, nil, hStageSig, fmt.Errorf("H share: %w", err)
	}
	if parentShare, err = r.expectSlot(h.ParentShare, gpSigner, slotLoad, p); err != nil {
		return 0, 0, 0, nil, hStageSig, fmt.Errorf("H parent share: %w", err)
	}
	if parentBid, err = r.expectSlot(h.ParentBid, p, slotBid, p); err != nil {
		return 0, 0, 0, nil, hStageSig, fmt.Errorf("H parent bid: %w", err)
	}
	siblings := r.info[p].children
	if len(h.Siblings) != len(siblings) {
		return 0, 0, 0, nil, hStageSig, fmt.Errorf("H has %d sibling bids, parent has %d children", len(h.Siblings), len(siblings))
	}
	sibQ = make([]float64, len(siblings))
	echoOK := false
	for k, sib := range siblings {
		q, err := r.expectSlot(h.Siblings[k], sib, slotEquivBid, sib)
		if err != nil {
			return 0, 0, 0, nil, hStageSig, fmt.Errorf("H sibling %d: %w", sib, err)
		}
		sibQ[k] = q
		if sib == c && bytes.Equal(h.Siblings[k].Payload, ownBidMsg.Payload) {
			echoOK = true
		}
	}
	if !echoOK {
		return 0, 0, 0, nil, hStageEcho, fmt.Errorf("H does not echo the child's own signed bid")
	}
	// Star arithmetic: the parent's committed share for c must equal
	// parentShare × starAlpha[c].
	star, err := r.starFromBids(p, parentBid, sibQ)
	if err != nil {
		return 0, 0, 0, nil, hStageArith, err
	}
	pos := -1
	for k, sib := range siblings {
		if sib == c {
			pos = k
		}
	}
	want := parentShare * star.Alpha[pos]
	if math.Abs(share-want) > wireTol {
		return 0, 0, 0, nil, hStageArith, fmt.Errorf("share %v inconsistent with star arithmetic %v", share, want)
	}
	return share, parentShare, parentBid, sibQ, hStageOK, nil
}

// reportBadH arbitrates a Phase II grievance; attribution follows the
// failure stage. The run terminates either way (the subtree is unservable).
func (r *treeRunner) reportBadH(reporter int, h hMsg, ownBidMsg sign.Signed) {
	r.arbMu.Lock()
	defer r.arbMu.Unlock()
	accused := r.info[reporter].parent
	_, _, _, _, stage, err := r.checkH(reporter, h, ownBidMsg)
	switch stage {
	case hStageArith:
		r.fineAndRewardLocked(ViolationWrongCompute, accused, reporter, 0)
		r.terminateLocked(fmt.Sprintf("P%d miscomputed the tree allocation: %v", accused, err), true)
	case hStageEcho:
		r.fineAndRewardLocked(ViolationContradiction, reporter, accused, 0)
		r.terminateLocked(fmt.Sprintf("P%d disowned its own signed tree bid", reporter), true)
	default: // hStageSig (unattributable evidence) or hStageOK (nothing wrong)
		r.fineAndRewardLocked(ViolationFalseAccuse, reporter, accused, 0)
		r.terminateLocked(fmt.Sprintf("P%d falsely accused P%d of wrong tree computation", reporter, accused), true)
	}
}

// reportTreeContradiction arbitrates Phase I contradictions.
func (r *treeRunner) reportTreeContradiction(reporter, accused int, m1, m2 sign.Signed) {
	r.arbMu.Lock()
	defer r.arbMu.Unlock()
	r.countVerifyN(2)
	if m1.SignerID == accused && r.pki.Contradiction(m1, m2) {
		r.fineAndRewardLocked(ViolationContradiction, accused, reporter, 0)
		r.terminateLocked(fmt.Sprintf("P%d sent contradictory tree bids", accused), true)
		return
	}
	r.fineAndRewardLocked(ViolationFalseAccuse, reporter, accused, 0)
	r.terminateLocked(fmt.Sprintf("P%d falsely accused P%d", reporter, accused), true)
}

// reportTreeOverload arbitrates Phase III dumping: Λ proves the received
// amount; H commits the planned share. The slack budgets one Λ block per
// tree level. The run continues.
func (r *treeRunner) reportTreeOverload(reporter int, h hMsg, att device.Attestation, meter device.MeterReading, ownBidMsg sign.Signed) {
	r.arbMu.Lock()
	defer r.arbMu.Unlock()
	accused := r.info[reporter].parent
	share, _, _, _, stage, err := r.checkH(reporter, h, ownBidMsg)
	valid := stage == hStageOK && err == nil
	var proved float64
	if valid {
		proved, err = r.issuer.Verify(att)
		valid = err == nil
	}
	if valid {
		valid = device.VerifyReading(r.pki, 0, meter) == nil && meter.Proc == reporter
	}
	slack := float64(r.info[reporter].depth+1) * r.unit * 4
	if valid && proved > share+slack {
		extra := proved - share
		r.fineAndRewardLocked(ViolationOverload, accused, reporter, extra*meter.WTilde)
		return
	}
	r.fineAndRewardLocked(ViolationFalseAccuse, reporter, accused, 0)
}

// collect assembles the result and settles bills.
func (r *treeRunner) collect() *TreeResult {
	var bills []treeBill
	for b := range r.bills {
		bills = append(bills, b)
	}
	solutionFound := !r.corrupted.Load() && !r.terminated
	if !r.terminated {
		sort.Slice(bills, func(x, y int) bool { return bills[x].from < bills[y].from })
		for _, b := range bills {
			r.settleTreeBill(b, solutionFound)
		}
	}
	res := &TreeResult{
		Completed:     !r.terminated,
		TermReason:    r.termReason,
		Bids:          make([]float64, r.size),
		Retained:      make([]float64, r.size),
		Detections:    append([]Detection(nil), r.detections...),
		Ledger:        r.ledger,
		Utilities:     make([]float64, r.size),
		SolutionFound: solutionFound,
		Stats:         Stats{Messages: r.stats.Messages, Signatures: r.stats.Signatures, Verifications: r.stats.Verifications},
	}
	for i, st := range r.states {
		res.Bids[i] = st.bid
		if !r.void {
			res.Retained[i] = st.retained
			res.Utilities[i] = st.valuation
		}
		res.Utilities[i] += r.ledger.Balance(i)
	}
	return res
}

// settleTreeBill pays or audits one bill.
func (r *treeRunner) settleTreeBill(b treeBill, solutionFound bool) {
	r.arbMu.Lock()
	defer r.arbMu.Unlock()
	cfg := r.params.Cfg
	j := b.from
	payItems := func(bm treeBill) {
		_ = r.ledger.Pay(j, bm.compensation, payment.KindCompensation, fmt.Sprintf("tree C_%d", j))
		if bm.recompense > 0 {
			_ = r.ledger.Pay(j, bm.recompense, payment.KindRecompense, fmt.Sprintf("tree E_%d", j))
		}
		if bm.bonus > 0 {
			_ = r.ledger.Pay(j, bm.bonus, payment.KindBonus, fmt.Sprintf("tree B_%d", j))
		} else if bm.bonus < 0 {
			_ = r.ledger.Fine(j, -bm.bonus, payment.KindBonus, fmt.Sprintf("tree B_%d", j))
		}
		if bm.solution > 0 {
			_ = r.ledger.Pay(j, bm.solution, payment.KindSolutionBon, fmt.Sprintf("tree S_%d", j))
		}
	}
	if j == 0 {
		payItems(b)
		return
	}
	audited := xrand.New(r.params.Seed^(uint64(j)+1)*0x9e3779b97f4a7c15).Float64() < cfg.AuditProb
	if !audited {
		payItems(b)
		return
	}
	want, err := r.recomputeTreeBill(b, solutionFound)
	if err != nil || b.total() > want.total()+wireTol {
		_ = r.ledger.Fine(j, cfg.AuditFine(), payment.KindAuditFine, fmt.Sprintf("tree audit P%d", j))
		r.detections = append(r.detections, Detection{
			Violation: ViolationOvercharge, Offender: j, Reporter: payment.Mechanism, Fine: cfg.AuditFine(),
		})
		if err == nil {
			payItems(want)
		}
		return
	}
	payItems(b)
}

// recomputeTreeBill derives the expected bill from the proof alone.
func (r *treeRunner) recomputeTreeBill(b treeBill, solutionFound bool) (treeBill, error) {
	j := b.from
	cfg := r.params.Cfg
	share, _, parentBid, sibQ, stage, err := r.checkH(j, b.proof.h, b.proof.ownEquiv)
	if stage != hStageOK || err != nil {
		return treeBill{}, fmt.Errorf("proof H_%d: %w", j, err)
	}
	if device.VerifyReading(r.pki, 0, b.proof.meter) != nil || b.proof.meter.Proc != j {
		return treeBill{}, fmt.Errorf("proof meter for P%d invalid", j)
	}
	received, err := r.issuer.Verify(b.proof.att)
	if err != nil {
		return treeBill{}, fmt.Errorf("proof Λ_%d: %w", j, err)
	}
	bid, err := r.expectSlot(b.proof.ownBid, j, slotBid, j)
	if err != nil {
		return treeBill{}, err
	}
	wTilde := b.proof.meter.WTilde
	retained := b.proof.meter.Load
	if retained > received+4*float64(r.info[j].depth+1)*r.unit {
		return treeBill{}, fmt.Errorf("metered load %v exceeds attested receipt %v", retained, received)
	}

	// Own star (for alpha0 and q) from the node's children's signed bids.
	children := r.info[j].children
	if len(b.proof.childBids) != len(children) {
		return treeBill{}, fmt.Errorf("proof has %d child bids, node has %d children", len(b.proof.childBids), len(children))
	}
	alpha0, q := 1.0, bid
	if len(children) > 0 {
		childQ := make([]float64, len(children))
		for k, c := range children {
			v, err := r.expectSlot(b.proof.childBids[k], c, slotEquivBid, c)
			if err != nil {
				return treeBill{}, fmt.Errorf("proof child bid %d: %w", c, err)
			}
			childQ[k] = v
		}
		star, err := r.starFromBids(j, bid, childQ)
		if err != nil {
			return treeBill{}, err
		}
		alpha0, q = star.Alpha0, star.T
	}
	planAlpha := share * alpha0

	var want treeBill
	want.from = j
	if retained <= 0 {
		return want, nil
	}
	want.compensation = planAlpha * wTilde
	if retained >= planAlpha-wireTol {
		want.recompense = math.Max(0, retained-planAlpha) * wTilde
	}
	var qHat float64
	switch {
	case wTilde >= bid:
		qHat = alpha0 * wTilde
	default:
		qHat = q
	}
	// Realized parent star with this node's adjusted equivalent.
	p := r.info[j].parent
	star, err := r.starFromBids(p, parentBid, sibQ)
	if err != nil {
		return treeBill{}, err
	}
	pos := -1
	for k, sib := range r.info[p].children {
		if sib == j {
			pos = k
		}
	}
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
	want.bonus = parentBid - realized
	if cfg.SolutionBonus > 0 && solutionFound {
		want.solution = cfg.SolutionBonus
	}
	return want, nil
}
