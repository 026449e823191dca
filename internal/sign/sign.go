// Package sign implements the cryptographic substrate assumed by the DLS-LBL
// mechanism (Carroll & Grosu, IPPS 2007, Sect. 4): every processor P_i owns a
// key pair whose public half is registered with a PKI, and protocol messages
// travel as digitally signed messages dsm_i(m) = (m, sig_i(m)).
//
// Signatures use stdlib crypto/ed25519. Keys are derived deterministically
// from caller-provided seeds so that experiments are reproducible; nothing in
// this package touches crypto/rand.
//
// The paper's arbitration logic (Lemma 5.2) needs exactly two primitives
// beyond sign/verify, and both live here:
//
//   - Verify: authenticity and integrity of one message;
//   - Contradiction: proof that one signer produced two different payloads
//     for the same protocol slot, which is finable evidence.
package sign

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Errors returned by verification.
var (
	ErrUnknownSigner = errors.New("sign: signer not registered with PKI")
	ErrBadSignature  = errors.New("sign: signature verification failed")
	ErrDuplicateID   = errors.New("sign: id already registered")
)

// Signed is a digitally signed message dsm_i(m): the payload m together with
// sig_i(m) and the claimed signer identity. The identity is part of what the
// recipient verifies against the PKI, not a trusted field.
type Signed struct {
	SignerID int
	Payload  []byte
	Sig      []byte
}

// Clone returns a deep copy, so stored evidence cannot be mutated later by
// the party that produced it.
func (s Signed) Clone() Signed {
	return Signed{
		SignerID: s.SignerID,
		Payload:  append([]byte(nil), s.Payload...),
		Sig:      append([]byte(nil), s.Sig...),
	}
}

// Equal reports whether two signed messages are byte-identical.
func (s Signed) Equal(o Signed) bool {
	return s.SignerID == o.SignerID &&
		bytes.Equal(s.Payload, o.Payload) &&
		bytes.Equal(s.Sig, o.Sig)
}

// Signer holds a processor's key pair. The private key never leaves the
// struct; sharing it is itself a protocol violation (Lemma 5.2).
//
// The signer memoizes its own signatures: ed25519 is deterministic, so the
// same payload always yields the same signature, and signing is ~25µs while
// a map hit is nanoseconds. A processor re-signs the same slot payload many
// times across a session's rounds (its bid, its load commitments), which is
// what makes the memo worth carrying. Safe for concurrent use — the root's
// key signs meter readings from every processor's goroutine.
type Signer struct {
	id   int
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey

	memoMu   sync.RWMutex
	memo     map[string]Signed
	memoHits atomic.Int64
}

// NewSigner derives a key pair for processor id deterministically from seed.
// Distinct (id, seed) pairs give distinct keys.
func NewSigner(id int, seed uint64) *Signer {
	var material [ed25519.SeedSize]byte
	binary.LittleEndian.PutUint64(material[0:8], seed)
	binary.LittleEndian.PutUint64(material[8:16], uint64(id)*0x9e3779b97f4a7c15+1)
	binary.LittleEndian.PutUint64(material[16:24], seed^0xdeadbeefcafebabe)
	binary.LittleEndian.PutUint64(material[24:32], uint64(id)+0x0123456789abcdef)
	priv := ed25519.NewKeyFromSeed(material[:])
	return &Signer{
		id:   id,
		pub:  priv.Public().(ed25519.PublicKey),
		priv: priv,
		memo: make(map[string]Signed),
	}
}

// ID returns the processor identity bound to this key pair.
func (s *Signer) ID() int { return s.id }

// Public returns the public key for PKI registration.
func (s *Signer) Public() ed25519.PublicKey {
	return append(ed25519.PublicKey(nil), s.pub...)
}

// Sign produces dsm_id(payload).
func (s *Signer) Sign(payload []byte) Signed {
	return Signed{
		SignerID: s.id,
		Payload:  append([]byte(nil), payload...),
		Sig:      ed25519.Sign(s.priv, payload),
	}
}

// SignMemo is Sign answered from the signature memo when this payload has
// been signed before. The returned Signed shares its Payload and Sig slices
// with the memo: callers must treat it as immutable and Clone before any
// mutation (the fault injectors already do).
func (s *Signer) SignMemo(payload []byte) Signed {
	s.memoMu.RLock()
	cached, ok := s.memo[string(payload)]
	s.memoMu.RUnlock()
	if ok {
		s.memoHits.Add(1)
		return cached
	}
	signed := s.Sign(payload)
	s.memoMu.Lock()
	s.memo[string(signed.Payload)] = signed
	s.memoMu.Unlock()
	return signed
}

// SignMemoHits returns how many SignMemo calls skipped the ed25519 signing.
func (s *Signer) SignMemoHits() int64 { return s.memoHits.Load() }

// PKI is the public key infrastructure: a registry mapping processor IDs to
// public keys. It is safe for concurrent use; the protocol runtime verifies
// messages from many goroutines.
//
// The PKI memoizes successful verifications. The protocol verifies the same
// signed message at several points of a run — the recipient on receipt, the
// bonus computation's re-check of forwarded bids, the arbiter's audit of a
// proof bundle — and ed25519 verification dominates the protocol's CPU time
// (ablation A3). Since keys cannot be replaced once registered (Register
// rejects duplicates), a (signer, payload, sig) triple that verified once
// verifies forever, so replaying the cheap memo lookup is sound. Failed
// verifications are never cached: every failure re-runs the full check and
// produces its original error. A PKI lives for one protocol run, which
// bounds the memo to the run's message count.
type PKI struct {
	mu   sync.RWMutex
	keys map[int]ed25519.PublicKey

	memoMu   sync.RWMutex
	memo     map[memoKey]memoSig
	memoLong map[memoKeyLong]string
	memoHits atomic.Int64
}

// memoMaxPayload bounds the payloads the fixed-size memo key can hold. Every
// protocol payload fits (slots are 20 bytes, meter readings 28); anything
// longer falls back to the string-keyed map.
const memoMaxPayload = 40

// memoKey identifies one successfully verified message without allocating:
// the key is a fixed-size comparable value built on the stack holding the
// exact payload bytes, so a lookup costs one map probe over a compact key.
// The signature deliberately rides in the map VALUE, not the key: hashing
// the 64 signature bytes on every probe made the memo lookup itself the
// hottest line of a warm daemon round, while an equality compare of the
// stored signature costs a handful of ns. A hit therefore means "this exact
// (signer, payload, sig) triple verified before" — same contract as keying
// by the full triple, because a probe only answers yes when the stored
// signature matches the presented one byte for byte. Copying the bytes into
// the key/value is also what makes the cached entry immune to later mutation
// of the caller's slices.
type memoKey struct {
	id      int32
	plen    uint8
	payload [memoMaxPayload]byte
}

// memoSig is the memo value: the one signature that verified for the keyed
// (signer, payload). ed25519 signing is deterministic, so a second distinct
// valid signature for the same payload never arises from an honest signer;
// if one ever appears it simply re-verifies without the memo.
type memoSig [ed25519.SignatureSize]byte

// memoKeyLong is the fallback key for payloads the fixed-size key cannot
// hold. The string conversions copy (and allocate), which is acceptable off
// the hot path.
type memoKeyLong struct {
	id      int
	payload string
}

// fixedMemoKey builds the allocation-free key, reporting false when the
// message does not fit its fixed-size fields.
func fixedMemoKey(msg Signed) (memoKey, bool) {
	if len(msg.Payload) > memoMaxPayload || len(msg.Sig) != ed25519.SignatureSize ||
		int64(msg.SignerID) != int64(int32(msg.SignerID)) {
		return memoKey{}, false
	}
	var k memoKey
	k.id = int32(msg.SignerID)
	k.plen = uint8(len(msg.Payload))
	copy(k.payload[:], msg.Payload)
	return k, true
}

// NewPKI returns an empty registry.
func NewPKI() *PKI {
	return &PKI{
		keys:     make(map[int]ed25519.PublicKey),
		memo:     make(map[memoKey]memoSig),
		memoLong: make(map[memoKeyLong]string),
	}
}

// Register binds id to pub. Registering the same id twice is an error: key
// replacement would let a cheater repudiate earlier signatures.
func (p *PKI) Register(id int, pub ed25519.PublicKey) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.keys[id]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	p.keys[id] = append(ed25519.PublicKey(nil), pub...)
	return nil
}

// MustRegister is Register for setup paths where a duplicate is a programming
// error.
func (p *PKI) MustRegister(id int, pub ed25519.PublicKey) {
	if err := p.Register(id, pub); err != nil {
		panic(err)
	}
}

// Verify checks that msg carries a valid signature from its claimed signer.
// Repeat verifications of a message that already passed are answered from
// the memo without re-running ed25519.
func (p *PKI) Verify(msg Signed) error {
	key, fixed := fixedMemoKey(msg)
	if p.memoHit(msg, key, fixed) {
		p.memoHits.Add(1)
		return nil
	}
	return p.verifyAndMemoize(msg, key, fixed)
}

// VerifyBatch verifies msgs in order and returns the first failure: exactly
// the verdict, and the named deviant, of a Verify loop over the slice. The
// protocol verifies slot by slot; this is the bulk entry point the
// end-to-end benchmark's serve-path replay prices (bench/replay.go).
func (p *PKI) VerifyBatch(msgs []Signed) error {
	for i := range msgs {
		if err := p.Verify(msgs[i]); err != nil {
			return err
		}
	}
	return nil
}

// memoHit reports whether this exact (signer, payload, sig) triple has
// already verified successfully: the probe is keyed by (signer, payload)
// and the stored signature must match the presented one byte for byte.
func (p *PKI) memoHit(msg Signed, key memoKey, fixed bool) bool {
	p.memoMu.RLock()
	defer p.memoMu.RUnlock()
	if fixed {
		sig, hit := p.memo[key]
		return hit && sig == memoSig(msg.Sig)
	}
	sig, hit := p.memoLong[memoKeyLong{id: msg.SignerID, payload: string(msg.Payload)}]
	return hit && sig == string(msg.Sig)
}

// verifyAndMemoize runs the full ed25519 check and records a success.
func (p *PKI) verifyAndMemoize(msg Signed, key memoKey, fixed bool) error {
	p.mu.RLock()
	pub, ok := p.keys[msg.SignerID]
	p.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSigner, msg.SignerID)
	}
	if !ed25519.Verify(pub, msg.Payload, msg.Sig) {
		return fmt.Errorf("%w: signer %d", ErrBadSignature, msg.SignerID)
	}
	p.memoMu.Lock()
	if fixed {
		p.memo[key] = memoSig(msg.Sig)
	} else {
		p.memoLong[memoKeyLong{id: msg.SignerID, payload: string(msg.Payload)}] = string(msg.Sig)
	}
	p.memoMu.Unlock()
	return nil
}

// MemoHits returns how many Verify calls were answered from the memo.
func (p *PKI) MemoHits() int64 { return p.memoHits.Load() }

// MemoSize returns how many distinct messages have verified successfully.
func (p *PKI) MemoSize() int {
	p.memoMu.RLock()
	defer p.memoMu.RUnlock()
	return len(p.memo) + len(p.memoLong)
}

// Known reports whether id has a registered key.
func (p *PKI) Known(id int) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.keys[id]
	return ok
}

// Size returns the number of registered keys.
func (p *PKI) Size() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.keys)
}

// Contradiction decides whether the pair (a, b) proves that a single signer
// issued two different payloads: both messages verify under the same
// registered key but their payloads differ. This is the evidence format
// Phase I/II arbitration accepts (paper Sect. 4, "contradictory messages").
func (p *PKI) Contradiction(a, b Signed) bool {
	if a.SignerID != b.SignerID {
		return false
	}
	if bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	return p.Verify(a) == nil && p.Verify(b) == nil
}
