// Package payment implements the payment infrastructure the DLS-LBL
// mechanism assumes: an obedient bank that executes the transfers the
// mechanism orders — compensation and bonus payments to processors, fines
// collected from deviants, and rewards forwarded to reporters. Every
// movement is journaled so experiments can audit exactly where welfare went.
package payment

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Mechanism is the account identifier of the mechanism itself (the payer of
// compensations and the sink of audit fines).
const Mechanism = -1

// Kind classifies journal entries.
type Kind string

// Journal entry kinds.
const (
	KindCompensation Kind = "compensation" // C_j: measured cost reimbursement
	KindBonus        Kind = "bonus"        // B_j: incentive payment
	KindRecompense   Kind = "recompense"   // E_j: reimbursement for dumped load
	KindFine         Kind = "fine"         // F: penalty taken from a deviant
	KindReward       Kind = "reward"       // F forwarded to the reporter
	KindAuditFine    Kind = "audit-fine"   // F/q: failed payment audit
	KindSolutionBon  Kind = "solution"     // S: solution bonus
	KindAdjustment   Kind = "adjustment"   // anything else (tests, manual ops)
)

// Entry is one journaled transfer. Amount is always non-negative; direction
// is carried by From/To.
type Entry struct {
	Seq    int
	From   int
	To     int
	Amount float64
	Kind   Kind
	Memo   string
}

// Errors returned by ledger operations.
var (
	ErrNegativeAmount = errors.New("payment: negative or non-finite amount")
	ErrSelfTransfer   = errors.New("payment: transfer to self")
)

// Ledger is a thread-safe double-entry account book. Balances may go
// negative: a fined processor owes the difference (the paper assumes fines
// are enforceable).
type Ledger struct {
	mu       sync.Mutex
	balances map[int]float64
	journal  []Entry
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{balances: make(map[int]float64)}
}

// NewLedgerSized returns an empty ledger with capacity hints: accounts sizes
// the balance map, journalCap pre-sizes the journal. Callers that create a
// ledger per round (the protocol session) avoid the map/slice growth that
// would otherwise dominate the round's small-allocation count.
func NewLedgerSized(accounts, journalCap int) *Ledger {
	if accounts < 0 {
		accounts = 0
	}
	if journalCap < 0 {
		journalCap = 0
	}
	return &Ledger{
		balances: make(map[int]float64, accounts),
		journal:  make([]Entry, 0, journalCap),
	}
}

// Transfer moves amount from one account to another and journals it.
func (l *Ledger) Transfer(from, to int, amount float64, kind Kind, memo string) error {
	if amount < 0 || math.IsNaN(amount) || math.IsInf(amount, 0) {
		return fmt.Errorf("%w: %v", ErrNegativeAmount, amount)
	}
	if from == to {
		return fmt.Errorf("%w: account %d", ErrSelfTransfer, from)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balances[from] -= amount
	l.balances[to] += amount
	l.journal = append(l.journal, Entry{
		Seq: len(l.journal), From: from, To: to, Amount: amount, Kind: kind, Memo: memo,
	})
	return nil
}

// Pay moves amount from the mechanism to an agent account.
func (l *Ledger) Pay(to int, amount float64, kind Kind, memo string) error {
	return l.Transfer(Mechanism, to, amount, kind, memo)
}

// Fine moves amount from an agent to the mechanism.
func (l *Ledger) Fine(from int, amount float64, kind Kind, memo string) error {
	return l.Transfer(from, Mechanism, amount, kind, memo)
}

// Balance returns the current balance of an account (0 if never touched).
func (l *Ledger) Balance(id int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.balances[id]
}

// Journal returns a copy of all entries in order.
func (l *Ledger) Journal() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.journal...)
}

// EntriesTo returns the entries credited to the given account.
func (l *Ledger) EntriesTo(id int) []Entry {
	var out []Entry
	for _, e := range l.Journal() {
		if e.To == id {
			out = append(out, e)
		}
	}
	return out
}

// EntriesOfKind returns the entries of the given kind.
func (l *Ledger) EntriesOfKind(kind Kind) []Entry {
	var out []Entry
	for _, e := range l.Journal() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// TotalByKind sums the transferred amounts per kind.
func (l *Ledger) TotalByKind() map[Kind]float64 {
	totals := make(map[Kind]float64)
	for _, e := range l.Journal() {
		totals[e.Kind] += e.Amount
	}
	return totals
}

// Accounts returns the sorted list of accounts that ever appeared.
func (l *Ledger) Accounts() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]int, 0, len(l.balances))
	for id := range l.balances {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// NetZero verifies conservation: the sum of all balances is zero (within
// tol). Transfers only move money; they never create it.
func (l *Ledger) NetZero(tol float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return math.Abs(sumByID(l.balances)) <= tol
}

// sumByID adds the balances in ascending account-ID order. Float addition
// is not associative, so summing in map order would let the result, and
// the settlement bytes that carry it, change from call to call.
func sumByID(balances map[int]float64) float64 {
	ids := make([]int, 0, len(balances))
	for id := range balances {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sum float64
	for _, id := range ids {
		sum += balances[id]
	}
	return sum
}

// MechanismOutlay returns how much the mechanism has paid out net of fines
// collected — the budget the "price of incentives" ablation (A2) reports.
func (l *Ledger) MechanismOutlay() float64 {
	return -l.Balance(Mechanism)
}

// Len returns the number of journal entries.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.journal)
}

// ForEachEntry calls fn for every journal entry in order while holding the
// ledger lock. It exists for bulk consumers (the daemon's per-tenant books)
// that would otherwise force a full journal copy per round; fn must not call
// back into the ledger.
func (l *Ledger) ForEachEntry(fn func(Entry)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.journal {
		fn(e)
	}
}

// Book is a balances-only accumulator: the running account positions of a
// long-lived party (the daemon's per-tenant cumulative book) without the
// per-transfer journal a Ledger carries. A daemon settles hundreds of rounds
// per second into the same book for its whole uptime; journaling every
// replayed entry again made the book's append slice the largest allocation
// in a steady-state profile — and an unbounded one. The evidence ledger
// (internal/ledger) is the durable record; the book only needs to answer
// balance and conservation queries.
type Book struct {
	mu       sync.Mutex
	balances map[int]float64
}

// NewBook returns an empty balance accumulator.
func NewBook() *Book {
	return &Book{balances: make(map[int]float64)}
}

// Apply validates the whole journal first and then applies it atomically:
// either every entry moves money or none does, so a bad round can never
// leave the book half-applied (which would poison every later conservation
// check, not just the bad round). The error names the first bad entry.
func (b *Book) Apply(journal []Entry) error {
	for i := range journal {
		e := &journal[i]
		if e.Amount < 0 || math.IsNaN(e.Amount) || math.IsInf(e.Amount, 0) {
			return fmt.Errorf("%w: entry %d: %v", ErrNegativeAmount, i, e.Amount)
		}
		if e.From == e.To {
			return fmt.Errorf("%w: entry %d: account %d", ErrSelfTransfer, i, e.From)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range journal {
		e := &journal[i]
		b.balances[e.From] -= e.Amount
		b.balances[e.To] += e.Amount
	}
	return nil
}

// Balance returns the current balance of an account (0 if never touched).
func (b *Book) Balance(id int) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.balances[id]
}

// NetZero verifies conservation: the sum of all balances is zero (within
// tol).
func (b *Book) NetZero(tol float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return math.Abs(sumByID(b.balances)) <= tol
}
