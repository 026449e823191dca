package protocol

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dlsmech/internal/device"
	"dlsmech/internal/fault"
	"dlsmech/internal/obs"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// The sharded engine runs the same DLS-LBL round as Session, but the m+1
// processors are partitioned into contiguous chain segments, each executed
// by one sub-arbiter goroutine that sweeps its segment sequentially. A
// segment-internal message is a direct handoff; only the S-1 boundary
// messages per phase cross goroutines — so the per-round goroutine count and
// channel traffic drop from O(m) to O(S).
//
// The arbiter side is a fixed-fanout tree: each sub-arbiter batches its
// segment's Phase I bids and Phase IV bills into ONE wire frame
// (wire.BidBatch / wire.BillBatch), interior nodes aggregate children by
// envelope-validated splicing (no re-encode, no re-sign — the signed slots
// inside pass through byte-identical, the same self-contained-evidence
// convention the DLS-T proofs in tree.go rely on), and the root ingests
// O(fanout) frames per plane instead of O(m) messages. The root bulk-checks
// every batched signature with the chunked PKI verifier before committing
// the round to Phase II; a frame corrupted between sub-arbiters is caught
// either by the envelope checksum at the first receiving node or by the
// signature check at the root, and terminates the round with a named report.
//
// Because every per-processor computation goes through the shared step
// helpers (steps.go), the same audit coins are drawn, and bills round-trip
// exactly through the wire codec, a sharded round's payments are
// bit-identical to the chain engine's at equal seeds.

// ShardConfig parameterizes the sharded engine.
type ShardConfig struct {
	// Shards is the number of contiguous segments (1 ≤ Shards ≤ size).
	Shards int
	// Fanout is the arbiter tree fanout (≥ 2); 0 selects the default of 4.
	Fanout int
	// TamperFrame, when non-nil, may replace a batch frame in flight on the
	// tree edge from node `from` to node `to` (leaves are numbered by shard,
	// interior nodes above them, the root last). Test hook modeling
	// transport corruption between sub-arbiters.
	TamperFrame func(from, to int, frame []byte) []byte
}

const defaultFanout = 4

func (c ShardConfig) withDefaults() ShardConfig {
	if c.Fanout == 0 {
		c.Fanout = defaultFanout
	}
	return c
}

func (c ShardConfig) validate(size int) error {
	if c.Shards < 1 || c.Shards > size {
		return fmt.Errorf("protocol: shard count %d not in [1, %d]", c.Shards, size)
	}
	if c.Fanout < 2 {
		return fmt.Errorf("protocol: arbiter tree fanout %d < 2", c.Fanout)
	}
	return nil
}

// shardTreeNode is one interior aggregation node of the arbiter tree.
type shardTreeNode struct {
	id       int
	children []int  // node ids, left to right
	buf      []byte // splice arena, reused across rounds
}

// ShardedSession owns the pooled state of a sharded population: the
// underlying runner (signers, meters, arenas — shared with the chain
// engine's layout so the arbiter and settlement code are identical), the
// segment map, and the arbiter tree.
type ShardedSession struct {
	sess *Session
	cfg  ShardConfig
	segs [][2]int // [lo, hi] per shard, contiguous, covering 0..size-1

	nodes  []shardTreeNode // interior nodes
	topIDs []int           // node ids feeding the root, left to right
	rootID int
	// leftProc[id] is the leftmost processor of the subtree under node id,
	// used to attribute a corrupted frame to a segment.
	leftProc []int

	// One frame channel per tree node per plane; cap 1, written once per
	// round, drained on reset after aborted rounds.
	chBid  []chan []byte
	chBill []chan []byte

	// Per-shard encode arenas and batch scratch, reused across rounds.
	frameBid  [][]byte
	frameBill [][]byte
	bidsTmp   [][]wire.Bid
	billsTmp  [][]billMsg

	// Root ingest scratch: the flattened signed bids and their owners.
	sigsTmp []sign.Signed
	ownTmp  []int32

	// Round-scoped: Phase II is gated on the root having ingested and
	// verified every bid batch (the commit point of the round).
	bidsReady chan struct{}
}

// NewShardedSession builds a reusable sharded population. Signers, meters
// and the Λ issuer are identical to NewSession's at equal seeds.
func NewShardedSession(size int, seed uint64, cfg ShardConfig) (*ShardedSession, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(size); err != nil {
		return nil, err
	}
	ss := &ShardedSession{sess: NewSession(size, seed), cfg: cfg}

	// Balanced contiguous partition: the first size%S segments get one extra.
	s, base, rem := cfg.Shards, size/cfg.Shards, size%cfg.Shards
	lo := 0
	for k := 0; k < s; k++ {
		n := base
		if k < rem {
			n++
		}
		ss.segs = append(ss.segs, [2]int{lo, lo + n - 1})
		lo += n
	}

	// Arbiter tree: leaves are the shards (node id = shard index); parents
	// are built in groups of Fanout until at most Fanout nodes feed the root.
	ss.leftProc = make([]int, 0, 2*s)
	layer := make([]int, s)
	for k := 0; k < s; k++ {
		layer[k] = k
		ss.leftProc = append(ss.leftProc, ss.segs[k][0])
	}
	next := s
	for len(layer) > cfg.Fanout {
		var up []int
		for off := 0; off < len(layer); off += cfg.Fanout {
			end := off + cfg.Fanout
			if end > len(layer) {
				end = len(layer)
			}
			ss.nodes = append(ss.nodes, shardTreeNode{
				id:       next,
				children: append([]int(nil), layer[off:end]...),
			})
			ss.leftProc = append(ss.leftProc, ss.leftProc[layer[off]])
			up = append(up, next)
			next++
		}
		layer = up
	}
	ss.topIDs = layer
	ss.rootID = next

	ss.chBid = make([]chan []byte, next)
	ss.chBill = make([]chan []byte, next)
	for id := 0; id < next; id++ {
		ss.chBid[id] = make(chan []byte, 1)
		ss.chBill[id] = make(chan []byte, 1)
	}
	ss.frameBid = make([][]byte, s)
	ss.frameBill = make([][]byte, s)
	ss.bidsTmp = make([][]wire.Bid, s)
	ss.billsTmp = make([][]billMsg, s)
	return ss, nil
}

// Size returns the processor population of the session.
func (ss *ShardedSession) Size() int { return ss.sess.size }

// Shards returns the segment count.
func (ss *ShardedSession) Shards() int { return ss.cfg.Shards }

// RunSharded executes one sharded round on a fresh population — the
// convenience mirror of Run for callers that do not reuse sessions.
func RunSharded(p Params, cfg ShardConfig) (*Result, error) {
	ss, err := NewShardedSession(p.Net.Size(), p.Seed, cfg)
	if err != nil {
		return nil, err
	}
	return ss.Run(p)
}

// Run executes one protocol round across the shards.
func (ss *ShardedSession) Run(p Params) (*Result, error) {
	unit, err := p.validate()
	if err != nil {
		return nil, err
	}
	if p.Net.Size() != ss.sess.size {
		return nil, fmt.Errorf("protocol: session sized for %d processors, network has %d", ss.sess.size, p.Net.Size())
	}
	if p.Inject != nil && p.Inject != fault.None {
		// The message-plane injector models per-hop transport faults of the
		// chain topology; the sharded transport's corruption model is
		// ShardConfig.TamperFrame instead.
		return nil, fmt.Errorf("protocol: sharded engine does not support fault injection (use ShardConfig.TamperFrame)")
	}
	r := ss.sess.r
	if err := r.resetRound(p, unit, ss.sess.seed); err != nil {
		return nil, err
	}
	for id := range ss.chBid {
		drain(ss.chBid[id])
		drain(ss.chBill[id])
	}
	ss.bidsReady = make(chan struct{})

	r.hooks.OnPhaseStart(obs.Root, obs.PhaseRound)
	var wg sync.WaitGroup
	wg.Add(1 + len(ss.nodes) + len(ss.segs))
	go func() {
		defer wg.Done()
		ss.rootIngest()
	}()
	for k := range ss.nodes {
		go func(n *shardTreeNode) {
			defer wg.Done()
			if ss.relay(n, wire.TypeBidBatch, ss.chBid, fault.PhaseBid) {
				ss.relay(n, wire.TypeBillBatch, ss.chBill, fault.PhaseBill)
			}
		}(&ss.nodes[k])
	}
	for s := range ss.segs {
		go func(s int) {
			defer wg.Done()
			ss.runShard(s)
		}(s)
	}
	wg.Wait()
	r.auxwg.Wait()

	res := r.collect()
	r.hooks.OnPhaseEnd(obs.Root, obs.PhaseRound)
	return res, nil
}

// sendFrame delivers a batch frame on a tree edge unless the round aborted,
// counting it as one message.
func (ss *ShardedSession) sendFrame(from int, ch chan []byte, frame []byte, plane string) bool {
	r := ss.sess.r
	select {
	case ch <- frame:
		atomic.AddInt64(&r.stats.Messages, 1)
		r.hooks.OnMessage(from, ss.rootID, plane)
		return true
	case <-r.abort:
		return false
	}
}

// recvFrame receives a batch frame from a tree edge. The tree is in-process
// arbiter infrastructure: a frame can only fail to arrive after the round
// aborted, so no timeout is needed.
func (ss *ShardedSession) recvFrame(ch chan []byte) ([]byte, bool) {
	select {
	case f := <-ch:
		return f, true
	case <-ss.sess.r.abort:
		return nil, false
	}
}

// tamper applies the test hook to a frame crossing the edge from→to.
func (ss *ShardedSession) tamper(from, to int, frame []byte) []byte {
	if t := ss.cfg.TamperFrame; t != nil {
		return t(from, to, frame)
	}
	return frame
}

// frameOffender attributes a corrupted frame received from tree node id to
// a processor: the leftmost bidder of the subtree (the root itself never
// bids, so shard 0's frames are attributed to P1).
func (ss *ShardedSession) frameOffender(id int) int {
	off := ss.leftProc[id]
	if off == 0 {
		off = 1
	}
	return off
}

// relay is one interior tree node's work on one plane: receive each child's
// batch frame, validate its envelope (type, count bound, checksum — a link
// that corrupted the frame is caught here, at the first hop), and forward
// the spliced aggregate. false terminates the node's round.
func (ss *ShardedSession) relay(n *shardTreeNode, t wire.MsgType, chans []chan []byte, ph fault.Phase) bool {
	r := ss.sess.r
	frames := make([][]byte, 0, len(n.children))
	for _, c := range n.children {
		f, ok := ss.recvFrame(chans[c])
		if !ok {
			return false
		}
		frames = append(frames, ss.tamper(c, n.id, f))
	}
	out, bad, err := wire.SpliceBatch(n.buf[:0], t, ss.leftProc[n.children[0]], frames)
	if err != nil {
		r.arb.reportBadSignature(0, ss.frameOffender(n.children[bad]), ph,
			"corrupted %s frame between sub-arbiters (node %d → %d): %v", t, n.children[bad], n.id, err)
		return false
	}
	n.buf = out
	return ss.sendFrame(n.id, chans[n.id], out, t.String())
}

// rootIngest is the root arbiter's side of the tree: decode every bid
// batch, bulk-verify the signatures (memo-warm: the in-shard receivers
// already verified the same bytes), register the commitments, and open
// Phase II; then decode every bill batch into the settlement slots.
func (ss *ShardedSession) rootIngest() {
	r := ss.sess.r

	sigs, own := ss.sigsTmp[:0], ss.ownTmp[:0]
	seen := 0
	for _, id := range ss.topIDs {
		f, ok := ss.recvFrame(ss.chBid[id])
		if !ok {
			return
		}
		batch, _, err := wire.DecodeBidBatch(ss.tamper(id, ss.rootID, f))
		if err != nil {
			r.arb.reportBadSignature(0, ss.frameOffender(id), fault.PhaseBid,
				"corrupted bid batch from sub-arbiter (node %d → root): %v", id, err)
			return
		}
		for _, b := range batch.Bids {
			for _, sg := range b.Signed {
				sigs = append(sigs, sg)
				own = append(own, int32(b.From))
			}
			if len(b.Signed) > 0 {
				r.arb.noteBid(b.From, b.Signed[0])
			}
			seen++
		}
	}
	ss.sigsTmp, ss.ownTmp = sigs, own
	r.countVerifyN(int64(len(sigs)))
	if at, err := r.pki.VerifyBatchNamed(sigs); err != nil {
		off := 1
		if at >= 0 {
			off = int(own[at])
		}
		r.arb.reportBadSignature(0, off, fault.PhaseBid, "inauthentic bid in sub-arbiter batch: %v", err)
		return
	}
	if seen != r.size-1 {
		// Every processor but the root bids exactly once; a sub-arbiter that
		// dropped or duplicated entries is transport corruption too.
		r.arb.reportBadSignature(0, 1, fault.PhaseBid, "sub-arbiter batches carried %d bids, want %d", seen, r.size-1)
		return
	}
	close(ss.bidsReady)

	for _, id := range ss.topIDs {
		f, ok := ss.recvFrame(ss.chBill[id])
		if !ok {
			return
		}
		batch, _, err := wire.DecodeBillBatch(ss.tamper(id, ss.rootID, f))
		if err != nil {
			r.arb.reportBadSignature(0, ss.frameOffender(id), fault.PhaseBill,
				"corrupted bill batch from sub-arbiter (node %d → root): %v", id, err)
			return
		}
		for _, b := range batch.Bills {
			r.takeBill(b)
		}
	}
}

// shardBarrier synchronizes the shards between Phase III and Phase IV (the
// corrupted-solution flag must be final before any bill is computed). The
// chain engine's per-processor barrier state is reused with shard
// granularity; there is no timeout because a shard that dies does so only
// after an arbiter report, which aborts the round.
func (ss *ShardedSession) shardBarrier(s int) bool {
	r := ss.sess.r
	r.p3mu.Lock()
	if !r.p3seen[s] {
		r.p3seen[s] = true
		r.p3count++
		if r.p3count == len(ss.segs) {
			close(r.p3done)
		}
	}
	r.p3mu.Unlock()
	select {
	case <-r.p3done:
		return true
	case <-r.abort:
		return false
	}
}

// runShard executes Phases I-IV for the contiguous segment s. Segment-
// internal messages are direct handoffs; boundary messages use the same
// channels (and the same receive-timeout detection) as the chain engine.
func (ss *ShardedSession) runShard(s int) {
	r := ss.sess.r
	lo, hi := ss.segs[s][0], ss.segs[s][1]
	m := r.size - 1
	defer func() {
		for i := lo; i <= hi; i++ {
			r.endPhase(i)
		}
	}()

	// ---- Phase I: bids sweep right to left through the segment. ----
	var in bidMsg
	if hi < m {
		bm, ok := recvMsg(r, hi, hi+1, fault.PhaseBid, r.bidUp[hi+1])
		if !ok {
			return
		}
		in = bm
	}
	for i := hi; i >= lo; i-- {
		r.startPhase(i, fault.PhaseBid)
		var wbarSucc float64
		if i < m {
			ws, ok := r.phase1Inbound(i, in)
			if !ok {
				return
			}
			wbarSucc = ws
		}
		if out, send := r.phase1Compute(i, wbarSucc); send {
			if i == lo {
				if !countedSend(r, i, i-1, fault.PhaseBid, r.bidUp[i], out) {
					return
				}
			} else {
				in = out
			}
		}
	}
	// Batch the segment's signed bids into one frame up the arbiter tree.
	bids := ss.bidsTmp[s][:0]
	for i := lo; i <= hi; i++ {
		if i == 0 {
			continue
		}
		bids = append(bids, wire.Bid{From: i, Signed: r.procs[i].bidBuf})
	}
	ss.bidsTmp[s] = bids
	frame := wire.AppendBidBatch(ss.frameBid[s][:0], wire.BidBatch{Shard: s, Bids: bids})
	ss.frameBid[s] = frame
	if !ss.sendFrame(s, ss.chBid[s], frame, wire.TypeBidBatch.String()) {
		return
	}

	// ---- Phase II: wait for the root's commit, then sweep outward. ----
	select {
	case <-ss.bidsReady:
	case <-r.abort:
		return
	}
	var g gMsg
	if lo > 0 {
		gm, ok := recvMsg(r, lo, lo-1, fault.PhaseAlloc, r.gDown[lo])
		if !ok {
			return
		}
		g = gm
	}
	for i := lo; i <= hi; i++ {
		r.startPhase(i, fault.PhaseAlloc)
		if i > 0 && !r.phase2Inbound(i, g) {
			return
		}
		r.phase2Plan(i)
		if i < m {
			g2 := r.phase2Build(i)
			if i == hi {
				if !countedSend(r, i, i+1, fault.PhaseAlloc, r.gDown[i+1], g2) {
					return
				}
			} else {
				g = g2
			}
		}
	}

	// ---- Phase III: load sweeps outward with Λ attestations. ----
	var att device.Attestation
	var received float64
	corrupted := false
	if lo == 0 {
		minted, ok := r.phase3Mint()
		if !ok {
			return
		}
		att, received = minted, 1
	} else {
		if r.behavior(lo - 1).Faults.Desert {
			// The boundary predecessor took its allocation and walked out;
			// its segment stays silent, so the successor declares it dead
			// (same detection the chain's receive timeout produces).
			r.arb.reportDead(lo, lo-1, fault.PhaseLoad)
			return
		}
		lm, ok := recvMsg(r, lo, lo-1, fault.PhaseLoad, r.loadDown[lo])
		if !ok {
			return
		}
		received, att, corrupted = lm.Amount, lm.Att, lm.Corrupted
	}
	for i := lo; i <= hi; i++ {
		if r.behavior(i).Faults.Desert {
			// A deserter is locally visible to its sub-arbiter: the successor
			// files the report (for i == hi the next shard's executor does,
			// through the behavior peek above; the tail processor is reported
			// by the root, which its silence would have stalled).
			if i < hi {
				r.arb.reportDead(i+1, i, fault.PhaseLoad)
			} else if i == m {
				r.arb.reportDead(0, m, fault.PhaseLoad)
			}
			return
		}
		r.startPhase(i, fault.PhaseLoad)
		out, send := r.phase3Route(i, received, att, corrupted)
		if send && i == hi {
			if !countedSend(r, i, i+1, fault.PhaseLoad, r.loadDown[i+1], out) {
				return
			}
		}
		if !r.phase3Certify(i, att) {
			return
		}
		r.phase3Grieve(i)
		if send && i < hi {
			received, att, corrupted = out.Amount, out.Att, out.Corrupted
		}
	}

	// ---- Phase IV: bills, batched into one frame up the arbiter tree. ----
	if !ss.shardBarrier(s) {
		return
	}
	solutionFound := !r.corrupted.Load()
	bills := ss.billsTmp[s][:0]
	for i := lo; i <= hi; i++ {
		r.startPhase(i, fault.PhaseBill)
		bills = append(bills, r.phase4Bill(i, solutionFound))
	}
	ss.billsTmp[s] = bills
	bf := wire.AppendBillBatch(ss.frameBill[s][:0], wire.BillBatch{Shard: s, Bills: bills})
	ss.frameBill[s] = bf
	ss.sendFrame(s, ss.chBill[s], bf, wire.TypeBillBatch.String())
}
