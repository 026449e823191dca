package ledger

import (
	"cmp"
	"slices"
)

// indexOrder returns the addresses be indexes, in append order: by segment,
// then offset.
func indexOrder(be *FileBackend) []Hash {
	be.mu.Lock()
	defer be.mu.Unlock()
	hs := make([]Hash, 0, len(be.index))
	for h := range be.index {
		hs = append(hs, h)
	}
	slices.SortFunc(hs, func(a, b Hash) int {
		la, lb := be.index[a], be.index[b]
		return cmp.Or(cmp.Compare(la.seg, lb.seg), cmp.Compare(la.off, lb.off))
	})
	return hs
}

// liveEntries counts what the store holds in memory: its known records, its
// conflict-key cells and fork challengers, and its held generations.
func (s *Store) liveEntries() (records, keys, gens int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, gk := range s.byKey {
		keys += len(gk.first) + len(gk.forked)
	}
	for _, sv := range s.sessions {
		gens += len(sv.Gens)
	}
	return len(s.known), keys, gens
}

// LiveEntries exposes liveEntries to the external test package.
var LiveEntries = (*Store).liveEntries

// DeferBackend is Defer over any backend: Restore wires what be.Scan
// yields. A test wraps a backend in it to watch what a restore reads.
func DeferBackend(be Backend, met *Metrics) *Store {
	s := newStore(nil, met)
	s.load = func(s *Store) error {
		s.be = be
		return be.Scan(s.ingestFrame)
	}
	return s
}

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled

// PutArtifact appends an artifact of the round as the recorder would, with
// the given parents and payload, so that the close commits to it: a test
// forges a stored record with it.
func (rl *RoundLog) PutArtifact(kind Kind, slot int, parents []Hash, payload []byte) (Hash, bool) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.put(kind, slot, parents, payload)
}
