package protocol

import (
	"bytes"
	"sync"
	"testing"

	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// ackSink keeps the encoding of each processor's Phase III load
// acknowledgement: the evidence that carries Λ identifiers.
type ackSink struct {
	mu   sync.Mutex
	acks map[int][]byte
}

func (s *ackSink) RecordBid(int, sign.Signed)     {}
func (s *ackSink) RecordAlloc(wire.Alloc)         {}
func (s *ackSink) RecordGrievance(wire.Grievance) {}
func (s *ackSink) RecordBill(wire.Bill)           {}
func (s *ackSink) RecordLoadAck(slot int, l wire.Load) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acks[slot] = wire.AppendLoad(nil, l)
}

// runGen runs p as generation gen on s and returns its load acks and result.
func runGen(t *testing.T, s *Session, p Params, gen uint64) (map[int][]byte, *Result) {
	t.Helper()
	sink := &ackSink{acks: make(map[int][]byte)}
	p.Gen, p.Evidence = gen, sink
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.acks) == 0 {
		t.Fatal("round recorded no load acknowledgement")
	}
	return sink.acks, res
}

func sameAcks(a, b map[int][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for slot, ack := range a {
		if !bytes.Equal(ack, b[slot]) {
			return false
		}
	}
	return true
}

// TestGenRoundIsPureFunction: a round with Gen >= 1 depends on (session
// seed, Gen, Params) alone. Generation 3 run on a fresh session records the
// same Λ evidence and settles the same as generation 3 run after 1 and 2;
// its Λ identifiers differ from generation 2's. A Gen 0 round continues the
// session's Λ stream instead, so its evidence depends on the rounds before.
func TestGenRoundIsPureFunction(t *testing.T) {
	_, p := sessionChain(t, 4)
	warm := NewSession(5, 9)
	var acks2, acks3 map[int][]byte
	var res3 *Result
	for gen := uint64(1); gen <= 3; gen++ {
		acks, res := runGen(t, warm, p, gen)
		switch gen {
		case 2:
			acks2 = acks
		case 3:
			acks3, res3 = acks, res
		}
	}
	cold, coldRes := runGen(t, NewSession(5, 9), p, 3)
	if !sameAcks(cold, acks3) {
		t.Fatal("generation 3 recorded different Λ evidence on a fresh session")
	}
	sameResult(t, "gen 3 fresh vs warm", coldRes, res3)
	if sameAcks(acks2, acks3) {
		t.Fatal("generations 2 and 3 minted the same Λ identifiers")
	}

	first, _ := runGen(t, NewSession(5, 9), p, 0)
	again, _ := runGen(t, NewSession(5, 9), p, 0)
	if !sameAcks(first, again) {
		t.Fatal("the first Gen 0 round of two fresh sessions differs")
	}
	stream := NewSession(5, 9)
	runGen(t, stream, p, 0)
	second, _ := runGen(t, stream, p, 0)
	if sameAcks(first, second) {
		t.Fatal("a second Gen 0 round repeated the session stream's first identifiers")
	}
}
