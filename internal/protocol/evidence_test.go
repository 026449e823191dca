package protocol

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
)

// orderSink checks the order the EvidenceSink contract promises: each
// load ack after its sender's, and every bill, in slot order, after every
// other artifact. It sleeps in RecordLoadAck, so that a processor that
// forwarded before recording its receipt would let its successor's
// receipt overtake it.
type orderSink struct {
	mu       sync.Mutex
	acked    map[int]bool
	billed   int // bills recorded so far; -1 before the first
	lastBill int
	errs     []string
}

func (s *orderSink) fail(format string, args ...any) {
	s.errs = append(s.errs, fmt.Sprintf(format, args...))
}

func (s *orderSink) artifact(what string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.billed >= 0 {
		s.fail("%s recorded after a bill", what)
	}
}

func (s *orderSink) RecordBid(slot int, _ sign.Signed) { s.artifact(fmt.Sprintf("bid(%d)", slot)) }
func (s *orderSink) RecordAlloc(g wire.Alloc)          { s.artifact(fmt.Sprintf("alloc(%d)", g.To)) }
func (s *orderSink) RecordGrievance(gr wire.Grievance) {
	s.artifact(fmt.Sprintf("grievance(%d)", gr.Reporter))
}

func (s *orderSink) RecordLoadAck(slot int, _ wire.Load) {
	s.artifact(fmt.Sprintf("load-ack(%d)", slot))
	s.mu.Lock()
	if slot > 0 && !s.acked[slot-1] {
		s.fail("load-ack(%d) recorded before load-ack(%d)", slot, slot-1)
	}
	s.mu.Unlock()
	time.Sleep(200 * time.Microsecond)
	s.mu.Lock()
	s.acked[slot] = true
	s.mu.Unlock()
}

func (s *orderSink) RecordBill(b wire.Bill) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.billed >= 0 && b.From <= s.lastBill {
		s.fail("bill(%d) recorded after bill(%d)", b.From, s.lastBill)
	}
	s.billed++
	s.lastBill = b.From
}

// TestEvidenceRecordOrder: every processor records its Phase III receipt
// before it forwards the load, so load-ack(i) always precedes
// load-ack(i+1), and the bills are recorded last, in slot order. A ledger
// that stores a receipt or a bill as references to what was recorded
// before it relies on this to write equal bytes for equal rounds.
func TestEvidenceRecordOrder(t *testing.T) {
	_, p := sessionChain(t, 8)
	s := NewSession(p.Net.Size(), 9)
	for gen := uint64(1); gen <= 3; gen++ {
		sink := &orderSink{acked: map[int]bool{}, billed: -1}
		p.Gen, p.Evidence = gen, sink
		if _, err := s.Run(p); err != nil {
			t.Fatal(err)
		}
		if len(sink.errs) > 0 {
			t.Fatalf("gen %d: %v", gen, sink.errs)
		}
		if sink.billed+1 != p.Net.Size() || len(sink.acked) != p.Net.Size() {
			t.Fatalf("recorded %d bills and %d load acks for %d processors", sink.billed+1, len(sink.acked), p.Net.Size())
		}
	}
}
