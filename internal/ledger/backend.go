package ledger

import (
	"fmt"
	"sync"
)

// Backend is the ledger's storage plane: append-only, content-addressed,
// idempotent. The Store above it owns all DAG semantics; a backend only
// moves bytes.
type Backend interface {
	// Put appends one encoded envelope under its content address h, the
	// SHA-256 of frame. A hash already present is a no-op. The frame is
	// copied (or written out) before Put returns; callers may reuse the
	// buffer.
	Put(h Hash, frame []byte) error
	// Get returns the encoded envelope for h.
	Get(h Hash) ([]byte, error)
	// Scan streams every stored envelope not forgotten, in append order,
	// each address once (its first occurrence). Every frame matches its
	// address: the backend has checked it, so callers need not hash. The
	// frame may be reused once fn returns.
	Scan(fn func(h Hash, frame []byte) error) error
	// Forget drops the backend's in-memory handles on hs: Get and Scan may
	// no longer find them. The records stay stored, and a backend opened
	// over the same storage finds them again.
	Forget(hs []Hash)
	// Sync makes every previous Put durable. A no-op for volatile backends.
	Sync() error
	// Close releases resources. Put/Get/Scan/Sync after Close error.
	Close() error
}

// MemBackend is the volatile backend for tests and ephemeral sessions. Its
// frames are its storage, so it forgets nothing: a store opened over it
// again sees every record.
type MemBackend struct {
	mu     sync.RWMutex
	frames map[Hash][]byte
	order  []Hash
	closed bool
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{frames: make(map[Hash][]byte)}
}

// Put stores a copy of frame under h.
func (b *MemBackend) Put(h Hash, frame []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("ledger: backend closed")
	}
	if _, ok := b.frames[h]; ok {
		return nil
	}
	b.frames[h] = append([]byte(nil), frame...)
	b.order = append(b.order, h)
	return nil
}

// Get returns the stored envelope.
func (b *MemBackend) Get(h Hash) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, fmt.Errorf("ledger: backend closed")
	}
	frame, ok := b.frames[h]
	if !ok {
		return nil, fmt.Errorf("ledger: record %s not found", h.Short())
	}
	return frame, nil
}

// Scan visits every envelope in append order, hashing each one to honour
// the Backend contract.
func (b *MemBackend) Scan(fn func(h Hash, frame []byte) error) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return fmt.Errorf("ledger: backend closed")
	}
	for _, h := range b.order {
		frame := b.frames[h]
		if hashFrame(frame) != h {
			return fmt.Errorf("ledger: record %s: content does not match its address", h.Short())
		}
		if err := fn(h, frame); err != nil {
			return err
		}
	}
	return nil
}

// Forget is a no-op: the frames are the storage.
func (b *MemBackend) Forget([]Hash) {}

// Sync is a no-op: memory is as durable as it gets.
func (b *MemBackend) Sync() error { return nil }

// Close marks the backend unusable.
func (b *MemBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	return nil
}

// Len reports the number of stored records.
func (b *MemBackend) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.order)
}
