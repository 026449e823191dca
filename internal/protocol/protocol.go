// Package protocol is the distributed realization of the DLS-LBL mechanism:
// the autonomous-node runtime in which each processor is a goroutine that
// executes (or deviates from) Phases I-IV of Sect. 4 of the paper, talking
// to its chain neighbors over channels with digitally signed messages.
//
// Phase I   — equivalent bids w̄ flow from P_m toward the root; each hop is
//
//	dsm_i(w̄_i). Contradictory bids are reportable evidence.
//
// Phase II  — the allocation messages G_i flow outward (4.1)-(4.2); each
//
//	receiver re-verifies the arithmetic of Algorithm 1 and files a
//	grievance with the root when it fails.
//
// Phase III — the load flows outward carrying Λ attestations; a processor
//
//	that receives more than its planned share computes the excess
//	and grieves with (G_{i+1}, Λ_{i+1}, dsm_0(w̃_{i+1})).
//
// Phase IV  — every processor computes its own payment (4.4)-(4.9), submits
//
//	an itemized bill with Proof_j (4.12), and the root audits each
//	bill independently with probability q, fining F/q on failure.
//
// The economics are identical to internal/core (the analytic layer); the
// protocol tests assert exactly that. What this package adds is the
// *verification* story: deviations are detected from signed evidence alone,
// fines hit only deviants, and the incentives of Theorems 5.1-5.4 are
// realized by an actual message-passing system.
//
// # Fast path
//
// Run builds everything from scratch — keys, PKI, channels — which is the
// right semantics for one-shot experiments but pays the full ed25519 setup
// cost every round. A Session amortizes that cost across rounds: keys, the
// PKI's verification memo, the signers' signature memos, the Λ issuer's
// identifier registry, channels, and every per-round scratch buffer persist,
// so a steady-state round does arithmetic and memo lookups instead of
// crypto. See DESIGN.md, "Wire format & signature memos".
package protocol

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlsmech/internal/agent"
	"dlsmech/internal/core"
	"dlsmech/internal/device"
	"dlsmech/internal/dlt"
	"dlsmech/internal/fault"
	"dlsmech/internal/obs"
	"dlsmech/internal/payment"
	"dlsmech/internal/sign"
	"dlsmech/internal/xrand"
)

// numeric tolerance for re-verifying float arithmetic received over the wire.
const wireTol = 1e-9

// Params configures one protocol run.
type Params struct {
	Net     *dlt.Network  // true values (W) and link times (Z)
	Profile agent.Profile // one behavior per processor; index 0 must be honest
	Cfg     core.Config
	// Seed drives the round's own randomness: the audit coin flips and,
	// in a one-round Run, key generation and Λ block identifiers. Same
	// Params ⇒ same run. In a Session, keys come from the session seed,
	// and so do Λ identifiers (see Gen).
	Seed uint64
	// Gen, when not 0, makes the round a pure function of (session seed,
	// Gen, the rest of Params): its Λ identifiers come from an issuer
	// seeded by the session seed and Gen, not from the session's stream.
	// A durable daemon round passes its ledger generation, so a restart can
	// re-run any one round without the rounds before it. Gen 0 keeps the
	// session stream, which continues from round to round.
	Gen uint64
	// LambdaUnit is the Λ block granularity; 0 means 1/4096.
	LambdaUnit float64
	// Inject optionally injects message-plane and processor faults into the
	// run (nil injects nothing). See internal/fault for the rule DSL.
	Inject fault.Injector
	// Recovery tunes the failure detectors (receive timeouts, retransmit
	// budget, backoff). The zero value means DefaultRecovery().
	Recovery RecoveryConfig
	// Hooks receives observability callbacks (phase brackets, message legs,
	// retries, fines, audits). nil means obs.Nop: the disabled path is
	// bench-pinned to add zero allocations to the round.
	Hooks obs.Hooks
	// Evidence optionally receives every signed artifact the round produces
	// (nil records nothing). See EvidenceSink for the contract.
	Evidence EvidenceSink
}

// Violation names the deviation classes of Lemma 5.1.
type Violation string

// Violations detected by the runtime.
const (
	ViolationContradiction Violation = "contradictory-messages" // case (i)
	ViolationWrongCompute  Violation = "wrong-computation"      // case (ii)
	ViolationOverload      Violation = "load-shedding"          // case (iii)
	ViolationOvercharge    Violation = "overcharge"             // case (iv)
	ViolationFalseAccuse   Violation = "false-accusation"       // case (v)
	// ViolationUnresponsive: the processor exhausted a peer's receive
	// timeout/retransmit budget, or never submitted its Phase IV bill. It is
	// fined F only when the mechanism holds signed evidence the processor
	// committed to the round (its Phase I bid) — a breached commitment is a
	// protocol deviation under Theorem 5.1; a processor that vanished before
	// signing anything is merely excluded.
	ViolationUnresponsive Violation = "unresponsive"
	// ViolationBadSignature: a message failed verification. Transit
	// corruption is indistinguishable from sender misbehavior, so the
	// processor is excluded from the chain but not fined.
	ViolationBadSignature Violation = "invalid-signature"
)

// Detection records one arbitration outcome.
type Detection struct {
	Violation Violation
	Offender  int
	Reporter  int // payment.Mechanism for audit detections
	Fine      float64
	Reward    float64
}

// Stats counts protocol work for the overhead experiment (A3). The counts
// are logical: a signature answered from a memo still counts as one
// signature, a verification answered from the PKI memo still counts as one
// verification — the protocol demanded the check; the memo is how it was
// discharged.
type Stats struct {
	Messages      int64 // channel messages exchanged
	Signatures    int64 // signatures produced
	Verifications int64 // signature verifications performed
}

// Result is the outcome of a protocol run.
type Result struct {
	// Completed is false when a processor terminated the protocol in
	// Phase I/II (contradiction or wrong computation); no load is then
	// distributed and only fines/rewards move money.
	Completed  bool
	TermReason string
	// Failure is the typed termination record (nil when Completed): which
	// processor originated the failure and in which phase. RunWithRecovery
	// reads it to decide whom to exclude before re-running.
	Failure *PhaseError
	// Bids are the Phase I declared per-unit times (bids[0] = root truth).
	Bids []float64
	// Plan is Algorithm 1 on the bids (nil if terminated before Phase II).
	Plan *dlt.Allocation
	// Retained is the load each processor actually computed (all zero when
	// the round failed in Phase I/II: no load was distributed).
	Retained []float64
	// Detections lists every substantiated or failed accusation.
	Detections []Detection
	// Ledger holds every transfer; Utilities fold valuations in.
	Ledger    *payment.Ledger
	Utilities []float64
	// SolutionFound reports whether the verifiable computation survived
	// (false iff some processor corrupted data).
	SolutionFound bool
	Stats         Stats
}

// DetectionsFor returns the detections naming offender i.
func (r *Result) DetectionsFor(i int) []Detection {
	var out []Detection
	for _, d := range r.Detections {
		if d.Offender == i {
			out = append(out, d)
		}
	}
	return out
}

// validate checks the parts of Params a Session depends on and resolves the
// Λ unit.
func (p *Params) validate() (unit float64, err error) {
	if err := p.Net.Validate(); err != nil {
		return 0, err
	}
	if err := p.Cfg.Validate(); err != nil {
		return 0, err
	}
	size := p.Net.Size()
	if len(p.Profile) != size {
		return 0, fmt.Errorf("protocol: %d behaviors for %d processors", len(p.Profile), size)
	}
	if !p.Profile[0].IsHonest() {
		return 0, fmt.Errorf("protocol: the root is obedient; profile[0] must be honest")
	}
	unit = p.LambdaUnit
	if unit == 0 {
		unit = 1.0 / 4096
	}
	if !(unit > 0) || unit > 1 {
		return 0, fmt.Errorf("protocol: invalid lambda unit %v", unit)
	}
	return unit, nil
}

// Run executes the protocol cold: a fresh Session for a single round. For
// repeated rounds over the same processor population, create a Session once
// and call its Run — the steady state is more than an order of magnitude
// faster (see README, Performance).
func Run(p Params) (*Result, error) {
	if _, err := p.validate(); err != nil {
		return nil, err
	}
	return NewSession(p.Net.Size(), p.Seed).Run(p)
}

// Session holds the round-invariant state of a processor population: key
// pairs, the PKI with its verification memo, the sealed per-processor
// meters, the Λ issuer, the chain channels, and every pooled per-round
// scratch buffer. One Session supports any number of sequential Run calls
// over networks of the same size; it is NOT safe for concurrent Runs.
//
// Keys derive from the seed given at session creation. Params.Seed of an
// individual Run still drives that round's audit coin flips. Λ identifiers
// come from (session seed, Params.Gen) when Gen is not 0; with Gen 0 they
// continue from the session's issuer stream, fresh (and previously unseen)
// every round.
type Session struct {
	size int
	seed uint64
	r    *runner
}

// NewSession provisions keys, PKI, meters and pooled runtime state for a
// population of `size` processors (root + m workers).
func NewSession(size int, seed uint64) *Session {
	r := &runner{
		size: size,
		pki:  sign.NewPKI(),
	}
	for i := 0; i < size; i++ {
		s := sign.NewSigner(i, seed)
		r.signers = append(r.signers, s)
		r.pki.MustRegister(i, s.Public())
		r.meters = append(r.meters, device.NewMeter(r.signers[0], i))
	}
	// Ledger memo strings: built once, reused by every settlement.
	r.memoC = make([]string, size)
	r.memoE = make([]string, size)
	r.memoB = make([]string, size)
	r.memoS = make([]string, size)
	for j := 0; j < size; j++ {
		r.memoC[j] = fmt.Sprintf("C_%d", j)
		r.memoE[j] = fmt.Sprintf("E_%d", j)
		r.memoB[j] = fmt.Sprintf("B_%d", j)
		r.memoS[j] = fmt.Sprintf("S_%d", j)
	}
	r.procs = make([]*procState, size)
	for i := range r.procs {
		r.procs[i] = &procState{}
	}
	r.workers = make([]chan procJob, size)
	r.p3seen = make([]bool, size)
	r.resendBid = make(map[resendKey]*resendEntry[bidMsg])
	r.resendG = make(map[resendKey]*resendEntry[gMsg])
	r.resendLoad = make(map[resendKey]*resendEntry[loadMsg])
	r.resendBill = make(map[resendKey]*resendEntry[billMsg])
	r.billSlot = make([]billMsg, size)
	r.billSeen = make([]bool, size)
	r.billList = make([]billMsg, 0, size)
	r.arb = newArbiter(r)
	return &Session{size: size, seed: seed, r: r}
}

// Size returns the processor population of the session.
func (s *Session) Size() int { return s.size }

// PKI returns the session's public keys with their verification memo. A
// message verified through it before a Run is answered from the memo in
// the Run.
func (s *Session) PKI() *sign.PKI { return s.r.pki }

// MemoStats exposes the session's amortization counters: PKI verification
// memo hits and per-signer signature memo hits, summed.
func (s *Session) MemoStats() (verifyHits, signHits int64) {
	verifyHits = s.r.pki.MemoHits()
	for _, sg := range s.r.signers {
		signHits += sg.SignMemoHits()
	}
	return verifyHits, signHits
}

// Run executes one protocol round on the session's population.
func (s *Session) Run(p Params) (*Result, error) {
	r := s.r
	if r.job == nil {
		r.job = &settleJob{}
	}
	if err := s.beginRound(p, r.job); err != nil {
		return nil, err
	}
	res := r.job.settle() // audits resolved in beginRound; journaling fires hooks too
	r.hooks.OnPhaseEnd(obs.Root, obs.PhaseRound)
	return res, nil
}

// beginRound is the exchange stage of one round: validate, reset the pooled
// runtime, run Phases I–IV across the processor goroutines, and finish the
// exchange into job (bill recovery, audit resolution, settlement snapshot).
// After it returns, job.settle() may run at any later time — including
// concurrently with the next beginRound on the same session, which is
// exactly what Pipeline does.
func (s *Session) beginRound(p Params, job *settleJob) error {
	unit, err := p.validate()
	if err != nil {
		return err
	}
	if p.Net.Size() != s.size {
		return fmt.Errorf("protocol: session sized for %d processors, network has %d", s.size, p.Net.Size())
	}
	r := s.r
	if err := r.resetRound(p, unit, s.seed); err != nil {
		return err
	}

	r.hooks.OnPhaseStart(obs.Root, obs.PhaseRound)
	r.runProcessors()
	r.auxwg.Wait() // in-flight delayed deliveries

	r.finishExchange(job)
	return nil
}

// resetRound reinitializes the runner for one round, reusing every pooled
// structure from previous rounds.
func (r *runner) resetRound(p Params, unit float64, seed uint64) error {
	r.params = p
	r.sink = p.Evidence
	r.rec = p.Recovery.withDefaults()
	r.hooks = obs.Or(p.Hooks)
	r.inj = p.Inject
	if r.inj == nil {
		r.inj = fault.None
	}
	// The Λ issuer is unit-specific; recreate it, and the session stream,
	// on first use or unit change. Every round opens a fresh mint epoch, on
	// the session stream (Gen 0) or on the generation's own seed.
	if r.issuer == nil || r.unit != unit {
		r.lamb = xrand.New(seed ^ lambSalt)
		iss, err := device.NewIssuer(unit, r.lamb)
		if err != nil {
			return err
		}
		r.issuer = iss
		r.blockBuf = make([]device.Block, 0, int(1/unit)+1)
	}
	if p.Gen == 0 {
		r.issuer.Reset(r.lamb)
	} else {
		r.genLamb = xrand.Seeded(genLambdaSeed(seed, p.Gen))
		r.issuer.Reset(&r.genLamb)
	}
	r.unit = unit

	// Channel capacity depends on the retry budget; (re)build when it
	// changes, otherwise drain stragglers from the previous round.
	chanCap := 4 + r.rec.Retries
	if r.chanCap != chanCap {
		r.chanCap = chanCap
		r.bidUp = make([]chan bidMsg, r.size)     // bidUp[i]: P_i -> P_{i-1}
		r.gDown = make([]chan gMsg, r.size)       // gDown[i]: P_{i-1} -> P_i
		r.loadDown = make([]chan loadMsg, r.size) // loadDown[i]: P_{i-1} -> P_i
		for i := 1; i < r.size; i++ {
			r.bidUp[i] = make(chan bidMsg, chanCap)
			r.gDown[i] = make(chan gMsg, chanCap)
			r.loadDown[i] = make(chan loadMsg, chanCap)
		}
		r.bills = make(chan billMsg, r.size*(2+r.rec.Retries))
	} else {
		for i := 1; i < r.size; i++ {
			drain(r.bidUp[i])
			drain(r.gDown[i])
			drain(r.loadDown[i])
		}
		drain(r.bills)
	}

	// Fresh per-round ledger (it escapes into the Result), sized for the
	// typical journal: a few pay items per processor.
	r.ledger = payment.NewLedgerSized(r.size+1, 4*r.size)
	r.abort = make(chan struct{})
	r.p3done = make(chan struct{})
	r.p3count = 0
	for i := range r.p3seen {
		r.p3seen[i] = false
	}
	for _, st := range r.procs {
		st.reset()
	}
	// Advance the resend generation instead of clearing the maps, so warm
	// entry pointers survive. On the (theoretical) wrap, stale entries could
	// alias the new generation; start the maps clean then.
	r.roundGen++
	if r.roundGen == 0 {
		clear(r.resendBid)
		clear(r.resendG)
		clear(r.resendLoad)
		clear(r.resendBill)
		r.roundGen = 1
	}
	for i := range r.billSeen {
		r.billSeen[i] = false
	}
	r.arb.reset()
	r.corrupted.Store(false)
	r.stats = Stats{}
	return nil
}

// lambSalt ("LAMB") separates the Λ issuer's seeds from the key seeds.
const lambSalt = 0x4c414d42

// genLambdaSeed is the Λ issuer seed of generation gen (>= 1) of the session
// seeded by seed.
func genLambdaSeed(seed, gen uint64) uint64 {
	g := xrand.Seeded(gen)
	return seed ^ lambSalt ^ g.Uint64()
}

// drain empties a channel of stragglers from a previous (aborted) round.
func drain[T any](ch chan T) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// procState is the per-processor scratchpad the runner (and the arbiter's
// "subpoena" path) reads after the goroutine finishes.
type procState struct {
	bid        float64 // w_i declared
	equivBid   float64 // w̄_i
	planAlpha  float64 // α_i from Phase II
	planD      float64 // D_i planned
	planDNext  float64 // D_{i+1} planned
	hatPlanned float64 // α̂_i from bids
	prevBid    float64 // w_{i-1} as committed in G_i
	prevLoad   float64 // D_{i-1} as committed in G_i
	received   float64 // Phase III actual received
	retained   float64 // α̃_i actually computed
	wTilde     float64 // measured speed
	valuation  float64 // −α̃·w̃
	terminated bool
	curPhase   string // open phase label for the hook bracket (see startPhase)
	meter      device.MeterReading
	att        device.Attestation
	wbarSucc   float64 // w̄_{i+1} as received in Phase I (0 for i == m)
	// receivedBidMsg stores the successor's Phase I message; the arbiter
	// can subpoena it when arbitrating an echo-mismatch claim.
	receivedBidMsg sign.Signed
	// gIn is G_i as received (zero-valued for the root) with its verified
	// slot values; Phase IV billing and grievance evidence read from here.
	gIn   gMsg
	gVals gValues

	// Round-pooled arenas, preserved across reset: the Λ evidence copy and
	// the outgoing Phase I message slice.
	attBuf []device.Block
	bidBuf []sign.Signed
}

// reset clears the scratchpad for a new round, keeping the pooled arenas.
func (st *procState) reset() {
	attBuf, bidBuf := st.attBuf, st.bidBuf
	*st = procState{attBuf: attBuf[:0], bidBuf: bidBuf[:0]}
}

type runner struct {
	params   Params
	size     int
	unit     float64
	chanCap  int
	pki      *sign.PKI
	signers  []*sign.Signer
	meters   []*device.Meter
	issuer   *device.Issuer
	lamb     *xrand.Rand // the session's Λ stream (Gen 0 rounds)
	genLamb  xrand.Rand  // the current Gen >= 1 round's Λ source
	blockBuf []device.Block
	ledger   *payment.Ledger
	arb      *arbiter
	inj      fault.Injector
	rec      RecoveryConfig
	hooks    obs.Hooks
	sink     EvidenceSink

	// Ledger memo strings, built once per session.
	memoC, memoE, memoB, memoS []string

	bidUp    []chan bidMsg
	gDown    []chan gMsg
	loadDown []chan loadMsg
	bills    chan billMsg

	procs []*procState
	abort chan struct{}

	// workers holds the job channels of the pooled goroutines running the
	// current round's processors (runProcessors); procWG counts them down.
	workers []chan procJob
	procWG  sync.WaitGroup

	// Bill-collection arenas (finishExchange): first-bill-per-sender slots
	// and the ordered settlement list, reused across rounds.
	billSlot []billMsg
	billSeen []bool
	billList []billMsg

	// job is the settle job of Session.Run, allocated on its first round.
	// Pipelined rounds bring their own jobs so settles can outlive the next
	// exchange.
	job *settleJob

	p3mu    sync.Mutex
	p3count int
	p3seen  []bool
	p3done  chan struct{}

	// resend{Bid,G,Load,Bill} map (receiver, phase) to the retransmission
	// record registered by the sender just before its first delivery
	// attempt. A receiver whose timer expires asks for the message again;
	// the retransmission re-consults the injector, so a budgeted Drop rule
	// gets exhausted and the retransmission goes through. One typed map per
	// message plane keeps registration allocation-free (a closure per send
	// was the protocol's single largest allocation source). Entries are
	// pointers allocated on first use and generation-stamped: the keys of a
	// population are stable, so from the second round on registration writes
	// through warm pointers (a map assignment of a large value would re-box
	// it every time), and a stale generation marks entries of past rounds
	// invalid without clearing.
	resendMu   sync.Mutex
	roundGen   uint32
	resendBid  map[resendKey]*resendEntry[bidMsg]
	resendG    map[resendKey]*resendEntry[gMsg]
	resendLoad map[resendKey]*resendEntry[loadMsg]
	resendBill map[resendKey]*resendEntry[billMsg]

	auxwg sync.WaitGroup // delayed (injected) deliveries in flight

	corrupted atomic.Bool
	stats     Stats
}

type resendKey struct {
	from, to int
	ph       fault.Phase
}

// resendEntry is everything a retransmission needs: the channel, the exact
// message value of the first attempt, and the plane's corruption model. gen
// ties the record to one round (see runner.roundGen).
type resendEntry[T any] struct {
	gen     uint32
	ch      chan T
	v       T
	corrupt func(T) T
}

func (r *runner) behavior(i int) agent.Behavior { return r.params.Profile[i] }

func (r *runner) countSign()           { atomic.AddInt64(&r.stats.Signatures, 1) }
func (r *runner) countVerify()         { atomic.AddInt64(&r.stats.Verifications, 1) }
func (r *runner) countVerifyN(n int64) { atomic.AddInt64(&r.stats.Verifications, n) }

// signSlot signs the canonical slot payload with processor i's key. The
// payload is built on the stack and the signature comes from the signer's
// memo, so the steady-state cost is a map hit. The returned Signed shares
// memo-owned slices and must be treated as immutable (fault injectors clone
// before mutating).
func (r *runner) signSlot(i int, kind slotKind, index int, value float64) sign.Signed {
	r.countSign()
	var buf [slotPayloadSize]byte
	return r.signers[i].SignMemo(appendSlot(buf[:0], kind, index, value))
}

// countedSend delivers v on ch unless the run has been aborted. It is the
// single point where Stats.Messages increments, and OnMessage fires exactly
// here — so the dls_messages_total counter always equals Result.Stats.
// Messages (asserted by the exact-count tests).
func countedSend[T any](r *runner, from, to int, ph fault.Phase, ch chan T, v T) bool {
	select {
	case ch <- v:
		atomic.AddInt64(&r.stats.Messages, 1)
		r.hooks.OnMessage(from, to, ph.String())
		return true
	case <-r.abort:
		return false
	}
}

// startPhase fires the hook bracket for processor i entering phase ph,
// ending the previous phase if still open. Plain methods with scalar args
// keep the disabled (Nop) path allocation-free.
func (r *runner) startPhase(i int, ph fault.Phase) {
	r.endPhase(i)
	name := ph.String()
	r.procs[i].curPhase = name
	r.hooks.OnPhaseStart(i, name)
}

// endPhase closes processor i's open phase bracket, if any. Deferred at
// runProcessor exit so every return path ends its last phase.
func (r *runner) endPhase(i int) {
	if p := r.procs[i].curPhase; p != "" {
		r.procs[i].curPhase = ""
		r.hooks.OnPhaseEnd(i, p)
	}
}

// sendMsg is the fault-aware message plane: it registers a retransmission
// record in the plane's typed map for the receiver's timeout path and
// performs the first delivery attempt through the injector. corrupt, when
// non-nil, mutates a deep copy of the message to model in-transit
// corruption. The return mirrors countedSend: false only when the run
// aborted.
func sendMsg[T any](r *runner, reg map[resendKey]*resendEntry[T], from, to int, ph fault.Phase, ch chan T, v T, corrupt func(T) T) bool {
	k := resendKey{from: from, to: to, ph: ph}
	r.resendMu.Lock()
	e := reg[k]
	if e == nil {
		e = &resendEntry[T]{}
		reg[k] = e
	}
	e.gen, e.ch, e.v, e.corrupt = r.roundGen, ch, v, corrupt
	r.resendMu.Unlock()
	return deliver(r, from, to, ph, ch, v, corrupt)
}

// deliver consults the injector and performs one delivery attempt.
func deliver[T any](r *runner, from, to int, ph fault.Phase, ch chan T, v T, corrupt func(T) T) bool {
	act := r.inj.OnSend(from, ph)
	if act.Drop {
		// The message is lost in transit; the sender proceeds regardless
		// (fire-and-forget, exactly like a real datagram).
		return true
	}
	if act.Corrupt && corrupt != nil {
		v = corrupt(v)
	}
	if act.Delay > 0 {
		// Out of line so the closure's capture of v is paid only on delayed
		// deliveries; inline, it would force every message of every round onto
		// the heap (escape analysis is static, the branch is not).
		deliverDelayed(r, from, to, ph, ch, v, act)
		return true
	}
	if !countedSend(r, from, to, ph, ch, v) {
		return false
	}
	if act.Duplicate {
		countedSend(r, from, to, ph, ch, v)
	}
	return true
}

// deliverDelayed performs one injector-delayed delivery on a helper
// goroutine tracked by auxwg.
func deliverDelayed[T any](r *runner, from, to int, ph fault.Phase, ch chan T, v T, act fault.Action) {
	r.auxwg.Add(1)
	go func() {
		defer r.auxwg.Done()
		t := time.NewTimer(act.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.abort:
			return
		}
		countedSend(r, from, to, ph, ch, v)
		if act.Duplicate {
			countedSend(r, from, to, ph, ch, v)
		}
	}()
}

// tryResend asks the registered sender of (from, to, ph) to retransmit. It
// reports whether a sender had registered at all — absence means the peer
// never reached its send (crashed earlier).
func (r *runner) tryResend(from, to int, ph fault.Phase) bool {
	k := resendKey{from: from, to: to, ph: ph}
	switch ph {
	case fault.PhaseBid:
		return resendFrom(r, r.resendBid, k)
	case fault.PhaseAlloc:
		return resendFrom(r, r.resendG, k)
	case fault.PhaseLoad:
		return resendFrom(r, r.resendLoad, k)
	default:
		return resendFrom(r, r.resendBill, k)
	}
}

func resendFrom[T any](r *runner, reg map[resendKey]*resendEntry[T], k resendKey) bool {
	r.resendMu.Lock()
	e := reg[k]
	if e == nil || e.gen != r.roundGen {
		r.resendMu.Unlock()
		return false
	}
	// Copy the record out before delivering: the channel send can block, and
	// the sender may re-register concurrently.
	ch, v, corrupt := e.ch, e.v, e.corrupt
	r.resendMu.Unlock()
	deliver(r, k.from, k.to, k.ph, ch, v, corrupt)
	return true
}

// timerPool recycles timers across receives and rounds; a protocol round
// arms one timer per receive, and time.NewTimer's allocations were a
// measurable slice of the round's total.
var timerPool sync.Pool

// getTimer returns a running timer with duration d.
func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops and recycles a timer. Safe whether or not it fired: a
// buffered expiry left in C is drained so the next user cannot observe a
// stale tick.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// recvScale returns the timeout multiplier for a receive by `self` in phase
// ph. One silent processor stalls a whole cascade of waiters (on the bid
// plane everyone upstream of it, on the outward planes everyone downstream,
// plus its own next-phase receive), and all of them start their timers at
// nearly the same instant — so equal budgets would attribute the failure to
// whichever timer happened to fire first. Two rules make attribution
// deterministic instead:
//
//   - within a phase, the budget grows with the waiter's distance from the
//     flow's origin (P_m for bids, the root for the outward planes), so the
//     waiter adjacent to the silent sender always fires first;
//   - across phases, each phase's budgets start above every earlier phase's
//     ceiling, so the failure is pinned to the phase where traffic stopped.
func (r *runner) recvScale(self int, ph fault.Phase) time.Duration {
	units := self // outward flow: distance from the root
	if ph == fault.PhaseBid {
		units = (r.size - 1) - self // bids flow from P_m toward the root
	}
	if units < 1 {
		units = 1
	}
	switch ph {
	case fault.PhaseAlloc:
		units += r.size
	case fault.PhaseLoad:
		units += 2 * r.size
	case fault.PhaseBill:
		units += 3 * r.size
	}
	return time.Duration(units)
}

// recvMsg receives with the recovery discipline: an expiring timer requests
// retransmission up to Retries times with multiplicative backoff; an
// exhausted budget declares the peer dead via the arbiter (which aborts the
// round with a typed PhaseError). ok=false means the round is over for this
// processor, like countedRecv.
func recvMsg[T any](r *runner, self, from int, ph fault.Phase, ch chan T) (T, bool) {
	var zero T
	d := r.rec.Timeout * r.recvScale(self, ph)
	for attempt := 0; ; attempt++ {
		t := getTimer(d)
		select {
		case v := <-ch:
			putTimer(t)
			return v, true
		case <-r.abort:
			putTimer(t)
			return zero, false
		case <-t.C:
			putTimer(t)
		}
		if attempt >= r.rec.Retries {
			r.arb.reportDead(self, from, ph)
			return zero, false
		}
		r.hooks.OnRetry(self, from, ph.String(), attempt+1)
		r.tryResend(from, self, ph)
		d = time.Duration(float64(d) * r.rec.Backoff)
	}
}
