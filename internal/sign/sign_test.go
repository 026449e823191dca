package sign

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func newRegistered(t *testing.T, ids ...int) (*PKI, map[int]*Signer) {
	t.Helper()
	pki := NewPKI()
	signers := make(map[int]*Signer, len(ids))
	for _, id := range ids {
		s := NewSigner(id, 1234)
		signers[id] = s
		if err := pki.Register(id, s.Public()); err != nil {
			t.Fatal(err)
		}
	}
	return pki, signers
}

func TestSignVerifyRoundTrip(t *testing.T) {
	pki, signers := newRegistered(t, 0, 1, 2)
	for id, s := range signers {
		msg := s.Sign([]byte("hello from " + string(rune('0'+id))))
		if err := pki.Verify(msg); err != nil {
			t.Fatalf("verify failed for %d: %v", id, err)
		}
	}
}

func TestVerifyRejectsTamperedPayload(t *testing.T) {
	pki, signers := newRegistered(t, 1)
	msg := signers[1].Sign([]byte("bid=3.5"))
	msg.Payload[0] ^= 0xff
	if err := pki.Verify(msg); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	pki, signers := newRegistered(t, 1)
	msg := signers[1].Sign([]byte("bid=3.5"))
	msg.Sig[0] ^= 0x01
	if err := pki.Verify(msg); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestVerifyRejectsImpersonation(t *testing.T) {
	pki, signers := newRegistered(t, 1, 2)
	// Signer 2 signs but claims to be 1.
	msg := signers[2].Sign([]byte("payload"))
	msg.SignerID = 1
	if err := pki.Verify(msg); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("impersonation accepted: %v", err)
	}
}

func TestVerifyUnknownSigner(t *testing.T) {
	pki, _ := newRegistered(t, 1)
	rogue := NewSigner(99, 7)
	msg := rogue.Sign([]byte("x"))
	if err := pki.Verify(msg); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("want ErrUnknownSigner, got %v", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	pki := NewPKI()
	s := NewSigner(1, 1)
	if err := pki.Register(1, s.Public()); err != nil {
		t.Fatal(err)
	}
	if err := pki.Register(1, s.Public()); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("want ErrDuplicateID, got %v", err)
	}
}

func TestMustRegisterPanicsOnDup(t *testing.T) {
	pki := NewPKI()
	s := NewSigner(1, 1)
	pki.MustRegister(1, s.Public())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pki.MustRegister(1, s.Public())
}

func TestDeterministicKeys(t *testing.T) {
	a := NewSigner(5, 42)
	b := NewSigner(5, 42)
	if string(a.Public()) != string(b.Public()) {
		t.Fatal("same (id, seed) must give same key")
	}
	c := NewSigner(6, 42)
	d := NewSigner(5, 43)
	if string(a.Public()) == string(c.Public()) || string(a.Public()) == string(d.Public()) {
		t.Fatal("distinct (id, seed) must give distinct keys")
	}
}

func TestContradictionDetected(t *testing.T) {
	pki, signers := newRegistered(t, 3)
	a := signers[3].Sign([]byte("wbar=2.0"))
	b := signers[3].Sign([]byte("wbar=1.0"))
	if !pki.Contradiction(a, b) {
		t.Fatal("genuine contradiction not detected")
	}
}

func TestContradictionRejectsSamePayload(t *testing.T) {
	pki, signers := newRegistered(t, 3)
	a := signers[3].Sign([]byte("wbar=2.0"))
	b := signers[3].Sign([]byte("wbar=2.0"))
	if pki.Contradiction(a, b) {
		t.Fatal("identical payloads flagged as contradiction")
	}
}

func TestContradictionRejectsForgery(t *testing.T) {
	pki, signers := newRegistered(t, 3, 4)
	a := signers[3].Sign([]byte("wbar=2.0"))
	// Signer 4 fabricates a "contradicting" message in 3's name.
	forged := signers[4].Sign([]byte("wbar=9.9"))
	forged.SignerID = 3
	if pki.Contradiction(a, forged) {
		t.Fatal("forged contradiction accepted — false accusations would succeed")
	}
}

func TestContradictionRejectsDifferentSigners(t *testing.T) {
	pki, signers := newRegistered(t, 3, 4)
	a := signers[3].Sign([]byte("x"))
	b := signers[4].Sign([]byte("y"))
	if pki.Contradiction(a, b) {
		t.Fatal("messages from different signers are not a contradiction")
	}
}

func TestCloneIsolation(t *testing.T) {
	s := NewSigner(1, 1)
	orig := s.Sign([]byte("data"))
	cp := orig.Clone()
	cp.Payload[0] = 'X'
	cp.Sig[0] ^= 0xff
	if orig.Payload[0] == 'X' || !orig.Equal(s.Sign([]byte("data"))) {
		t.Fatal("Clone shares backing storage")
	}
}

func TestEqual(t *testing.T) {
	s := NewSigner(1, 1)
	a := s.Sign([]byte("m"))
	if !a.Equal(a.Clone()) {
		t.Fatal("Equal(clone) = false")
	}
	b := s.Sign([]byte("n"))
	if a.Equal(b) {
		t.Fatal("different payloads compare equal")
	}
}

func TestKnownAndSize(t *testing.T) {
	pki, _ := newRegistered(t, 1, 2, 3)
	if !pki.Known(2) || pki.Known(9) {
		t.Fatal("Known misreports")
	}
	if pki.Size() != 3 {
		t.Fatalf("Size = %d", pki.Size())
	}
}

func TestConcurrentVerify(t *testing.T) {
	pki, signers := newRegistered(t, 0, 1, 2, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 400)
	for id, s := range signers {
		wg.Add(1)
		go func(id int, s *Signer) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				msg := s.Sign([]byte{byte(id), byte(i)})
				if err := pki.Verify(msg); err != nil {
					errs <- err
					return
				}
			}
		}(id, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Property: any payload signed by a registered signer verifies, and any
// single-bit flip in the payload does not.
func TestQuickSignVerify(t *testing.T) {
	pki, signers := newRegistered(t, 7)
	s := signers[7]
	f := func(payload []byte, flip uint16) bool {
		msg := s.Sign(payload)
		if pki.Verify(msg) != nil {
			return false
		}
		if len(payload) == 0 {
			return true
		}
		bad := msg.Clone()
		i := int(flip) % len(bad.Payload)
		bad.Payload[i] ^= 1 << (flip % 8)
		return pki.Verify(bad) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSign(b *testing.B) {
	s := NewSigner(1, 1)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Sign(payload)
	}
}

func BenchmarkVerify(b *testing.B) {
	pki := NewPKI()
	s := NewSigner(1, 1)
	pki.MustRegister(1, s.Public())
	msg := s.Sign(make([]byte, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pki.Verify(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVerifyMemo pins the memoization contract: the first verification of a
// valid message does the cryptographic work, repeats are memo hits with the
// same (nil) answer, and invalid messages are never cached.
func TestVerifyMemo(t *testing.T) {
	pki := NewPKI()
	s1 := NewSigner(1, 7)
	pki.MustRegister(1, s1.Public())
	msg := s1.Sign([]byte("payload"))

	if err := pki.Verify(msg); err != nil {
		t.Fatal(err)
	}
	if pki.MemoHits() != 0 {
		t.Fatalf("first verification reported %d memo hits", pki.MemoHits())
	}
	if pki.MemoSize() != 1 {
		t.Fatalf("memo size %d after one success", pki.MemoSize())
	}
	for k := 0; k < 5; k++ {
		if err := pki.Verify(msg); err != nil {
			t.Fatal(err)
		}
	}
	if pki.MemoHits() != 5 {
		t.Fatalf("got %d memo hits, want 5", pki.MemoHits())
	}

	// A tampered payload must fail every time and never enter the memo.
	bad := msg.Clone()
	bad.Payload[0] ^= 1
	for k := 0; k < 3; k++ {
		if err := pki.Verify(bad); err == nil {
			t.Fatal("tampered message verified")
		}
	}
	if pki.MemoSize() != 1 {
		t.Fatalf("failure entered the memo (size %d)", pki.MemoSize())
	}

	// An unknown signer must also keep failing (and stay uncached) even
	// after a success for another id.
	s2 := NewSigner(2, 7)
	unreg := s2.Sign([]byte("payload"))
	if err := pki.Verify(unreg); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("got %v, want ErrUnknownSigner", err)
	}
	if pki.MemoSize() != 1 {
		t.Fatalf("unknown signer entered the memo (size %d)", pki.MemoSize())
	}
}

// TestVerifyMemoImmuneToMutation checks the memo key copies its bytes: the
// caller mutating its slices after a verification cannot poison the cache.
func TestVerifyMemoImmuneToMutation(t *testing.T) {
	pki := NewPKI()
	s1 := NewSigner(1, 3)
	pki.MustRegister(1, s1.Public())
	msg := s1.Sign([]byte("original"))
	if err := pki.Verify(msg); err != nil {
		t.Fatal(err)
	}
	msg.Payload[0] ^= 0xff // mutate the very slice that was memoized
	if err := pki.Verify(msg); err == nil {
		t.Fatal("mutated message answered from memo")
	}
	if pki.MemoHits() != 0 {
		t.Fatalf("mutated lookup hit the memo (%d hits)", pki.MemoHits())
	}
}

// TestVerifyMemoConcurrent hammers one PKI from many goroutines under the
// race detector's eye.
func TestVerifyMemoConcurrent(t *testing.T) {
	pki := NewPKI()
	s1 := NewSigner(1, 9)
	pki.MustRegister(1, s1.Public())
	msgs := make([]Signed, 8)
	for k := range msgs {
		msgs[k] = s1.Sign([]byte{byte(k)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if err := pki.Verify(msgs[(g+k)%len(msgs)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if pki.MemoSize() != len(msgs) {
		t.Fatalf("memo size %d, want %d", pki.MemoSize(), len(msgs))
	}
}

func batchOf(signers map[int]*Signer, n int) []Signed {
	msgs := make([]Signed, 0, n)
	for i := 0; i < n; i++ {
		id := i % len(signers)
		msgs = append(msgs, signers[id].Sign([]byte(fmt.Sprintf("msg-%d", i))))
	}
	return msgs
}

func TestVerifyBatchAllValid(t *testing.T) {
	pki, signers := newRegistered(t, 0, 1, 2)
	msgs := batchOf(signers, 9)
	if err := pki.VerifyBatch(msgs); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	// Second pass must be answered entirely from the memo.
	before := pki.MemoHits()
	if err := pki.VerifyBatch(msgs); err != nil {
		t.Fatalf("memoized batch rejected: %v", err)
	}
	if got := pki.MemoHits() - before; got != int64(len(msgs)) {
		t.Fatalf("memo hits = %d, want %d", got, len(msgs))
	}
}

func TestVerifyBatchEmpty(t *testing.T) {
	pki, _ := newRegistered(t, 0)
	if err := pki.VerifyBatch(nil); err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
}

// TestVerifyBatchNamesSequentialDeviant is the core contract: for any batch,
// VerifyBatch must return exactly the error a sequential Verify loop returns
// — same verdict, same named deviant — no matter where the bad message sits.
func TestVerifyBatchNamesSequentialDeviant(t *testing.T) {
	for _, badAt := range []int{0, 3, 8, 17} {
		badAt := badAt
		t.Run(fmt.Sprintf("badAt=%d", badAt), func(t *testing.T) {
			pki, signers := newRegistered(t, 0, 1, 2)
			msgs := batchOf(signers, 18)
			if badAt < len(msgs) {
				msgs[badAt].Sig[0] ^= 0x01
			}

			var wantErr error
			for _, m := range msgs {
				if err := pki.Verify(m); err != nil {
					wantErr = err
					break
				}
			}
			// Fresh PKI so the batch starts from a cold memo.
			pki2 := NewPKI()
			for id, s := range signers {
				pki2.MustRegister(id, s.Public())
			}
			gotErr := pki2.VerifyBatch(msgs)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("verdicts differ: sequential=%v batch=%v", wantErr, gotErr)
			}
			if wantErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("named deviant differs:\nsequential: %v\nbatch:      %v", wantErr, gotErr)
			}
		})
	}
}

func TestVerifyBatchUnknownSigner(t *testing.T) {
	pki, signers := newRegistered(t, 0, 1)
	msgs := batchOf(signers, 4)
	stranger := NewSigner(9, 42)
	msgs[2] = stranger.Sign([]byte("who am I"))
	err := pki.VerifyBatch(msgs)
	if !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("want ErrUnknownSigner, got %v", err)
	}
	if !strings.Contains(err.Error(), "9") {
		t.Fatalf("deviant id missing from error: %v", err)
	}
}

func TestVerifyLongPayloadFallback(t *testing.T) {
	pki, signers := newRegistered(t, 1)
	long := signers[1].Sign([]byte(strings.Repeat("x", memoMaxPayload+40)))
	if err := pki.Verify(long); err != nil {
		t.Fatal(err)
	}
	if pki.MemoSize() != 1 {
		t.Fatalf("long payload not memoized: size=%d", pki.MemoSize())
	}
	before := pki.MemoHits()
	for k := 0; k < 2; k++ {
		if err := pki.Verify(long); err != nil {
			t.Fatal(err)
		}
	}
	if pki.MemoHits() != before+2 {
		t.Fatalf("long-payload memo not hit")
	}
	// A tampered long payload misses the memo and fails.
	bad := long.Clone()
	bad.Payload[len(bad.Payload)-1] ^= 1
	if err := pki.Verify(bad); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered long payload: %v, want ErrBadSignature", err)
	}
}

func TestSignMemoDeterministic(t *testing.T) {
	s := NewSigner(3, 77)
	payload := []byte("slot payload")
	a := s.Sign(payload)
	b := s.SignMemo(payload)
	c := s.SignMemo(payload)
	if !a.Equal(b) || !b.Equal(c) {
		t.Fatal("SignMemo diverged from Sign")
	}
	if s.SignMemoHits() != 1 {
		t.Fatalf("memo hits = %d, want 1", s.SignMemoHits())
	}
	// The memoized signature must verify like a fresh one.
	pki := NewPKI()
	pki.MustRegister(3, s.Public())
	if err := pki.Verify(b); err != nil {
		t.Fatal(err)
	}
}

func TestSignMemoConcurrent(t *testing.T) {
	s := NewSigner(0, 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				msg := s.SignMemo([]byte(fmt.Sprintf("payload-%d", i%7)))
				if msg.SignerID != 0 || len(msg.Sig) == 0 {
					t.Error("bad memoized signature")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestVerifyMemoHitAllocFree pins the fast path: a memoized Verify of a
// protocol-sized payload must not allocate.
func TestVerifyMemoHitAllocFree(t *testing.T) {
	pki, signers := newRegistered(t, 1)
	msg := signers[1].Sign([]byte("a 20-byte-ish slot.."))
	if err := pki.Verify(msg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := pki.Verify(msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memo-hit Verify allocates %.1f/op, want 0", allocs)
	}
}

// TestVerifyBatchMemoHitAllocFree pins that a fully memoized batch does
// no allocation either.
func TestVerifyBatchMemoHitAllocFree(t *testing.T) {
	pki, signers := newRegistered(t, 0, 1, 2)
	msgs := batchOf(signers, 12)
	if err := pki.VerifyBatch(msgs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := pki.VerifyBatch(msgs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memo-hit VerifyBatch allocates %.1f/op, want 0", allocs)
	}
}
