package payment

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func TestTransferMovesBalance(t *testing.T) {
	l := NewLedger()
	if err := l.Transfer(1, 2, 5, KindAdjustment, "test"); err != nil {
		t.Fatal(err)
	}
	if l.Balance(1) != -5 || l.Balance(2) != 5 {
		t.Fatalf("balances %v / %v", l.Balance(1), l.Balance(2))
	}
}

func TestTransferValidation(t *testing.T) {
	l := NewLedger()
	for _, amt := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := l.Transfer(1, 2, amt, KindAdjustment, ""); !errors.Is(err, ErrNegativeAmount) {
			t.Fatalf("amount %v: got %v", amt, err)
		}
	}
	if err := l.Transfer(3, 3, 1, KindAdjustment, ""); !errors.Is(err, ErrSelfTransfer) {
		t.Fatalf("self transfer: got %v", err)
	}
	// Failed transfers must not touch balances or the journal.
	if l.Balance(1) != 0 || len(l.Journal()) != 0 {
		t.Fatal("failed transfer had side effects")
	}
}

func TestPayAndFine(t *testing.T) {
	l := NewLedger()
	if err := l.Pay(4, 10, KindBonus, "bonus"); err != nil {
		t.Fatal(err)
	}
	if err := l.Fine(4, 3, KindFine, "deviation"); err != nil {
		t.Fatal(err)
	}
	if l.Balance(4) != 7 {
		t.Fatalf("balance %v, want 7", l.Balance(4))
	}
	if l.Balance(Mechanism) != -7 {
		t.Fatalf("mechanism %v, want -7", l.Balance(Mechanism))
	}
	if l.MechanismOutlay() != 7 {
		t.Fatalf("outlay %v", l.MechanismOutlay())
	}
}

func TestJournalOrderAndCopy(t *testing.T) {
	l := NewLedger()
	_ = l.Pay(1, 1, KindBonus, "a")
	_ = l.Pay(2, 2, KindFine, "b")
	j := l.Journal()
	if len(j) != 2 || j[0].Seq != 0 || j[1].Seq != 1 {
		t.Fatalf("journal %v", j)
	}
	j[0].Amount = 999
	if l.Journal()[0].Amount == 999 {
		t.Fatal("Journal must return a copy")
	}
}

func TestEntriesFilters(t *testing.T) {
	l := NewLedger()
	_ = l.Pay(1, 1, KindBonus, "")
	_ = l.Pay(2, 2, KindBonus, "")
	_ = l.Fine(1, 0.5, KindFine, "")
	to1 := l.EntriesTo(1)
	if len(to1) != 1 || to1[0].Amount != 1 {
		t.Fatalf("EntriesTo(1) = %v", to1)
	}
	fines := l.EntriesOfKind(KindFine)
	if len(fines) != 1 || fines[0].From != 1 {
		t.Fatalf("EntriesOfKind(fine) = %v", fines)
	}
}

func TestTotalByKind(t *testing.T) {
	l := NewLedger()
	_ = l.Pay(1, 1.5, KindBonus, "")
	_ = l.Pay(2, 2.5, KindBonus, "")
	_ = l.Pay(1, 3, KindCompensation, "")
	totals := l.TotalByKind()
	if math.Abs(totals[KindBonus]-4) > 1e-12 || math.Abs(totals[KindCompensation]-3) > 1e-12 {
		t.Fatalf("totals %v", totals)
	}
}

func TestAccountsSorted(t *testing.T) {
	l := NewLedger()
	_ = l.Pay(5, 1, KindBonus, "")
	_ = l.Pay(2, 1, KindBonus, "")
	got := l.Accounts()
	want := []int{Mechanism, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("accounts %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("accounts %v, want %v", got, want)
		}
	}
}

func TestNetZeroAlways(t *testing.T) {
	l := NewLedger()
	_ = l.Pay(1, 3.25, KindBonus, "")
	_ = l.Fine(2, 1.5, KindFine, "")
	_ = l.Transfer(1, 2, 0.75, KindReward, "")
	if !l.NetZero(1e-12) {
		t.Fatal("ledger does not conserve money")
	}
}

func TestConcurrentTransfers(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = l.Pay(g, 1, KindBonus, "")
			}
		}(g)
	}
	wg.Wait()
	if len(l.Journal()) != 800 {
		t.Fatalf("journal %d entries", len(l.Journal()))
	}
	if !l.NetZero(1e-9) {
		t.Fatal("not conserved under concurrency")
	}
	for g := 0; g < 8; g++ {
		if l.Balance(g) != 100 {
			t.Fatalf("account %d balance %v", g, l.Balance(g))
		}
	}
}

// TestNetZeroSumsInIDOrder: on balances whose float sum depends on the
// order of addition, NetZero gives the same answer on every call, the one
// the ascending-account-ID sum gives.
func TestNetZeroSumsInIDOrder(t *testing.T) {
	// Balances 1e16, 1, -1e16, 1, 1e16, 1, -1e16, -3 on accounts 0..7.
	transfers := []Entry{
		{From: 2, To: 0, Amount: 1e16},
		{From: 6, To: 4, Amount: 1e16},
		{From: 7, To: 1, Amount: 1},
		{From: 7, To: 3, Amount: 1},
		{From: 7, To: 5, Amount: 1},
	}
	l := NewLedger()
	b := NewBook()
	for _, e := range transfers {
		if err := l.Transfer(e.From, e.To, e.Amount, KindAdjustment, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Apply(transfers); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		balance func(int) float64
		netZero func(float64) bool
	}{"Ledger": {l.Balance, l.NetZero}, "Book": {b.Balance, b.NetZero}} {
		var sum float64
		for id := 0; id < 8; id++ {
			sum += c.balance(id)
		}
		for _, tol := range []float64{0.5, 1.5, 2.5, 3.5} {
			want := math.Abs(sum) <= tol
			for i := 0; i < 200; i++ {
				if got := c.netZero(tol); got != want {
					t.Fatalf("%s.NetZero(%g) call %d = %v; the ID-order sum %g gives %v", name, tol, i, got, sum, want)
				}
			}
		}
	}
}
