package device

import (
	"errors"
	"testing"

	"dlsmech/internal/sign"
	"dlsmech/internal/xrand"
)

func TestIssuerReset(t *testing.T) {
	t.Parallel()
	iss, err := NewIssuer(0.25, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	att, err := iss.Mint(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iss.Verify(att); err != nil {
		t.Fatal(err)
	}
	iss.Reset(nil)
	// Blocks of the previous epoch are now forgeries.
	if _, err := iss.Verify(att); !errors.Is(err, ErrForgedBlock) {
		t.Fatalf("pre-reset attestation accepted after Reset: %v", err)
	}
	// A fresh epoch mints and verifies normally.
	att2, err := iss.Mint(1)
	if err != nil {
		t.Fatal(err)
	}
	if amt, err := iss.Verify(att2); err != nil || amt != 1 {
		t.Fatalf("post-reset mint broken: %v %v", amt, err)
	}
}

func TestMintIntoReusesBuffer(t *testing.T) {
	t.Parallel()
	iss, err := NewIssuer(0.125, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Block, 0, 16)
	att, err := iss.MintInto(buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(att.Blocks) != 8 {
		t.Fatalf("minted %d blocks, want 8", len(att.Blocks))
	}
	if &att.Blocks[0] != &buf[:1][0] {
		t.Fatal("MintInto did not use the caller's buffer")
	}
	// Steady state: reset + re-mint into the same buffer allocates no blocks.
	allocs := testing.AllocsPerRun(50, func() {
		iss.Reset(nil)
		if _, err := iss.MintInto(buf[:0], 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state MintInto allocates %.1f/op, want 0", allocs)
	}
}

func TestVerifyAllocFree(t *testing.T) {
	t.Parallel()
	iss, err := NewIssuer(1.0/64, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	att, err := iss.Mint(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iss.Verify(att); err != nil {
		t.Fatal(err) // warm the seen scratch
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := iss.Verify(att); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Verify allocates %.1f/op, want 0", allocs)
	}
	// Duplicate detection still works on the stamped scratch.
	dup := Attestation{Blocks: []Block{att.Blocks[0], att.Blocks[0]}}
	if _, err := iss.Verify(dup); !errors.Is(err, ErrDuplicateBlock) {
		t.Fatalf("duplicate not detected: %v", err)
	}
	// And a clean verify right after a duplicate failure still passes.
	if _, err := iss.Verify(att); err != nil {
		t.Fatal(err)
	}
}

func TestMeterRecordMemoized(t *testing.T) {
	t.Parallel()
	root := sign.NewSigner(0, 99)
	m := NewMeter(root, 3)
	r1, err := m.Record(1.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Record(1.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Msg.Equal(r2.Msg) {
		t.Fatal("identical measurements signed differently")
	}
	if root.SignMemoHits() == 0 {
		t.Fatal("second Record did not hit the sign memo")
	}
	pki := sign.NewPKI()
	pki.MustRegister(0, root.Public())
	if err := VerifyReading(pki, 0, r2); err != nil {
		t.Fatal(err)
	}
	// Steady state: re-recording a known measurement allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Record(1.5, 0.25); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memoized Record allocates %.1f/op, want 0", allocs)
	}
}
