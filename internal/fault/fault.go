// Package fault is the fault-injection layer of the dlsmech runtime: a
// composable, deterministically seeded description of the failures a real
// deployment of the DLS-LBL protocol meets — lost, delayed, duplicated and
// reordered messages, processors that crash or stall at a protocol phase,
// and signatures corrupted in transit.
//
// The paper (Carroll & Grosu, IPPS 2007) proves the mechanism strategyproof
// under *adversarial* behavior; this package makes failure an explicit,
// testable input to that claim. An Injector is consulted by the protocol
// runner (internal/protocol) on every outbound message and at every phase
// entry, and by the discrete-event simulator (internal/des) through its
// FaultSpec mirror. Randomness comes from internal/xrand, so a (seed, rule
// set) pair replays the identical failure schedule on every run.
//
// The recovery story lives on the other side of the interface: the protocol
// runner retransmits on receive timeouts (surviving drops and delays),
// tolerates duplicates by construction (idempotent single-slot receives),
// and — when a retry budget is exhausted or a signature does not verify —
// declares the peer dead, lets the arbiter record the Detection and fine
// where signed evidence supports it, and re-runs LINEAR BOUNDARY-LINEAR on
// the surviving chain (Theorem 2.1 re-establishes equal finish times there).
package fault

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dlsmech/internal/xrand"
)

// Phase identifies the protocol phase (Sect. 4 of the paper) a fault
// attaches to. The zero value matches any phase in a Rule.
type Phase uint8

// Protocol phases, in wire order.
const (
	PhaseAny   Phase = iota // rule wildcard; never reported by the runtime
	PhaseBid                // Phase I: equivalent bids flow toward the root
	PhaseAlloc              // Phase II: allocation messages G flow outward
	PhaseLoad               // Phase III: load + Λ attestations flow outward
	PhaseBill               // Phase IV: itemized bills flow to the root
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseAny:
		return "any"
	case PhaseBid:
		return "bid"
	case PhaseAlloc:
		return "alloc"
	case PhaseLoad:
		return "load"
	case PhaseBill:
		return "bill"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// Kind is the failure class a Rule injects.
type Kind uint8

// Failure classes. Message-plane kinds (Drop..CorruptSig) are consulted per
// outbound message; Crash and Stall are consulted at phase entry.
const (
	// Drop loses the message. The receiver's retry budget requests
	// retransmission; a rule with Times=1 models a transient loss the
	// protocol survives, an unlimited rule models a dead link.
	Drop Kind = iota + 1
	// Delay holds the message for the rule's Delay before delivery.
	Delay
	// Duplicate delivers the message twice. Single-slot receives make the
	// second copy inert, which is exactly the property under test.
	Duplicate
	// Reorder holds the message for a random fraction of the rule's Delay,
	// letting later traffic overtake it. On a single-message channel this
	// degenerates to Delay; the DES event queue realizes true reordering.
	Reorder
	// CorruptSig flips a bit of the message's signature (or, on the Phase
	// III load plane where the payload itself is the integrity carrier,
	// marks the data corrupted — the Theorem 5.2 scenario).
	CorruptSig
	// Crash makes the processor exit silently at the phase entry.
	Crash
	// Stall pauses the processor for the rule's Delay at the phase entry; a
	// stall within the receiver's retry budget is survived, beyond it the
	// processor is declared dead.
	Stall
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "duplicate"
	case Reorder:
		return "reorder"
	case CorruptSig:
		return "corrupt-sig"
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// AnyProc is the Rule wildcard matching every processor.
const AnyProc = -1

// Rule is one injection clause: inject Kind on processor Proc at Phase,
// firing with probability Prob at each opportunity, at most Times times.
type Rule struct {
	Kind  Kind
	Proc  int           // target processor index, or AnyProc
	Phase Phase         // PhaseAny matches every phase
	Prob  float64       // firing probability per opportunity; 0 means 1
	Delay time.Duration // Delay/Reorder/Stall duration; 0 means DefaultDelay
	Times int           // maximum firings; 0 means unlimited
}

// DefaultDelay is used by Delay, Reorder and Stall rules that leave Delay
// zero. It is far below the runner's default timeout budget, so an injected
// delay alone never kills a processor.
const DefaultDelay = 5 * time.Millisecond

func (r Rule) delay() time.Duration {
	if r.Delay > 0 {
		return r.Delay
	}
	return DefaultDelay
}

func (r Rule) matches(proc int, ph Phase) bool {
	if r.Proc != AnyProc && r.Proc != proc {
		return false
	}
	return r.Phase == PhaseAny || r.Phase == ph
}

// String implements fmt.Stringer.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@P%d/%s", r.Kind, r.Proc, r.Phase)
	if r.Prob > 0 && r.Prob < 1 {
		fmt.Fprintf(&b, " p=%g", r.Prob)
	}
	if r.Times > 0 {
		fmt.Fprintf(&b, " x%d", r.Times)
	}
	return b.String()
}

// Action is the verdict for one outbound message. The zero value delivers
// the message untouched. Several rules may contribute to one Action.
type Action struct {
	Drop      bool
	Duplicate bool
	Corrupt   bool
	Delay     time.Duration
}

// Injector is consulted by the protocol runner. Implementations must be
// safe for concurrent use: one goroutine per processor calls in.
type Injector interface {
	// OnSend is consulted once per outbound message (and once more per
	// retransmission) of processor `from` in phase ph.
	OnSend(from int, ph Phase) Action
	// CrashBefore reports whether proc crashes at the entry of ph.
	CrashBefore(proc int, ph Phase) bool
	// StallBefore returns how long proc pauses at the entry of ph.
	StallBefore(proc int, ph Phase) time.Duration
}

// Event records one fired injection, for demos and assertions.
type Event struct {
	Proc  int
	Phase Phase
	Kind  Kind
}

// String implements fmt.Stringer.
func (e Event) String() string { return fmt.Sprintf("%s@P%d/%s", e.Kind, e.Proc, e.Phase) }

// Plan is the standard Injector: an ordered rule set with deterministic
// coin flips and per-rule firing budgets. The zero value injects nothing;
// use NewPlan to seed one.
type Plan struct {
	mu    sync.Mutex
	rng   *xrand.Rand
	rules []planRule
	fired []Event
}

type planRule struct {
	Rule
	left int // remaining firings; -1 = unlimited
}

// NewPlan builds a deterministic injector from the rules. Two plans built
// from the same (seed, rules) fire identically given the same sequence of
// consultations.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	p := &Plan{rng: xrand.New(seed ^ 0x464c54 /* "FLT" */)}
	for _, r := range rules {
		left := -1
		if r.Times > 0 {
			left = r.Times
		}
		p.rules = append(p.rules, planRule{Rule: r, left: left})
	}
	return p
}

// fire consults every matching rule of one of the given kinds and returns
// those that fired, consuming budgets. Callers hold p.mu.
func (p *Plan) fireLocked(proc int, ph Phase, kinds ...Kind) []Rule {
	var out []Rule
	for i := range p.rules {
		r := &p.rules[i]
		if r.left == 0 || !r.matches(proc, ph) {
			continue
		}
		match := false
		for _, k := range kinds {
			if r.Kind == k {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && !p.rng.Bool(r.Prob) {
			continue
		}
		if r.left > 0 {
			r.left--
		}
		p.fired = append(p.fired, Event{Proc: proc, Phase: ph, Kind: r.Kind})
		out = append(out, r.Rule)
	}
	return out
}

// OnSend implements Injector.
func (p *Plan) OnSend(from int, ph Phase) Action {
	p.mu.Lock()
	defer p.mu.Unlock()
	var a Action
	for _, r := range p.fireLocked(from, ph, Drop, Delay, Duplicate, Reorder, CorruptSig) {
		switch r.Kind {
		case Drop:
			a.Drop = true
		case Delay:
			a.Delay += r.delay()
		case Duplicate:
			a.Duplicate = true
		case Reorder:
			// Hold back a uniform fraction of the window so sibling traffic
			// can overtake.
			a.Delay += time.Duration(p.rng.Float64() * float64(r.delay()))
		case CorruptSig:
			a.Corrupt = true
		}
	}
	return a
}

// CrashBefore implements Injector.
func (p *Plan) CrashBefore(proc int, ph Phase) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.fireLocked(proc, ph, Crash)) > 0
}

// StallBefore implements Injector.
func (p *Plan) StallBefore(proc int, ph Phase) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var d time.Duration
	for _, r := range p.fireLocked(proc, ph, Stall) {
		d += r.delay()
	}
	return d
}

// Fired returns the injections that actually happened, in consultation
// order.
func (p *Plan) Fired() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.fired...)
}

// None is the no-op Injector.
var None Injector = noop{}

type noop struct{}

func (noop) OnSend(int, Phase) Action             { return Action{} }
func (noop) CrashBefore(int, Phase) bool          { return false }
func (noop) StallBefore(int, Phase) time.Duration { return 0 }

// Remap wraps an injector whose rules target *original* processor indices
// for use on a spliced (post-exclusion) chain: orig[i] is the original
// index of the processor currently at position i. The recovery runner uses
// this so a rule keeps naming the same physical machine across re-runs.
func Remap(in Injector, orig []int) Injector { return remapped{in: in, orig: orig} }

type remapped struct {
	in   Injector
	orig []int
}

func (m remapped) idx(proc int) int {
	if proc >= 0 && proc < len(m.orig) {
		return m.orig[proc]
	}
	return proc
}

func (m remapped) OnSend(from int, ph Phase) Action { return m.in.OnSend(m.idx(from), ph) }
func (m remapped) CrashBefore(proc int, ph Phase) bool {
	return m.in.CrashBefore(m.idx(proc), ph)
}
func (m remapped) StallBefore(proc int, ph Phase) time.Duration {
	return m.in.StallBefore(m.idx(proc), ph)
}
