package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/wire"
)

// live is what the measured phase observed from the client side.
type live struct {
	lat []float64 // ms per request (per stream on the stream workload)
	// lag is how late the generator sent each request, in ms: after the
	// later of its due time and its connection coming free on the open
	// loop, after the previous answer on a closed loop.
	lag []float64

	acked         int // ops answered and passing the per-ack checks
	messages      int64
	verifications int64
	samples       []sample
	errs          []string
	wall          time.Duration
}

// sample is one served result kept for the in-process re-run.
type sample struct {
	hello wire.Hello
	round wire.Round
	got   wire.RoundResult
}

func (l *live) fail(err error) {
	if len(l.errs) < 10 {
		l.errs = append(l.errs, err.Error())
	}
}

// record applies the per-ack checks to one answered load and keeps every
// checkEvery-th result of the connection for the re-run.
func (l *live) record(hello wire.Hello, rq wire.Round, deviant int, rr wire.RoundResult) {
	if err := checkResult(rq, deviant, rr); err != nil {
		l.fail(err)
		return
	}
	if l.acked%checkEvery == 0 {
		l.samples = append(l.samples, sample{hello: hello, round: rq, got: rr})
	}
	l.acked++
	l.messages += rr.Messages
	l.verifications += rr.Verifications
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// drive runs the measured phase over the warm clients, one goroutine per
// connection, and merges what they saw.
func (p *plan) drive(clients []*server.Client) (*live, error) {
	parts := make([]live, len(clients))
	var timers []*timerFD
	if p.w.open {
		for range clients {
			t, err := newTimerFD()
			if err != nil {
				return nil, err
			}
			defer t.Close()
			timers = append(timers, t)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	epoch := start.Add(2 * time.Millisecond)
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *server.Client) {
			defer wg.Done()
			switch {
			case p.w.open:
				p.driveOpen(cl, c, timers[c], epoch, &next, &parts[c])
			case p.w.stream:
				p.driveStreams(cl, c, start, &parts[c])
			default:
				p.driveRounds(cl, c, start, &parts[c])
			}
		}(c, cl)
	}
	wg.Wait()
	out := &live{wall: time.Since(start)}
	for i := range parts {
		pt := &parts[i]
		out.lat = append(out.lat, pt.lat...)
		out.lag = append(out.lag, pt.lag...)
		out.acked += pt.acked
		out.messages += pt.messages
		out.verifications += pt.verifications
		out.samples = append(out.samples, pt.samples...)
		out.errs = append(out.errs, pt.errs...)
	}
	return out, nil
}

// driveRounds is one closed-loop connection: the next Round goes out when
// the previous answer is in. A transport error ends the connection; its
// unsent requests count as failed.
func (p *plan) driveRounds(cl *server.Client, c int, ready time.Time, l *live) {
	for i := c; i < len(p.reqs); i += conns {
		rq := &p.reqs[i]
		t0 := time.Now()
		l.lag = append(l.lag, ms(t0.Sub(ready)))
		rr, err := cl.Round(rq.round)
		ready = time.Now()
		d := ready.Sub(t0)
		if err != nil {
			l.fail(err)
			if _, typed := server.IsServerError(err); typed {
				continue
			}
			return
		}
		l.lat = append(l.lat, ms(d))
		l.record(p.hellos[c], rq.round, rq.deviant, rr)
	}
}

// driveStreams is one closed-loop connection sending Streams; latency is
// per stream, from the request write to its StreamEnd.
func (p *plan) driveStreams(cl *server.Client, c int, ready time.Time, l *live) {
	for i := c; i < len(p.reqs); i += conns {
		rq := &p.reqs[i]
		k := 0
		t0 := time.Now()
		l.lag = append(l.lag, ms(t0.Sub(ready)))
		se, err := cl.Stream(rq.stream(), func(rr wire.RoundResult) error {
			l.record(p.hellos[c], rq.load(k), 0, rr)
			k++
			return nil
		})
		ready = time.Now()
		d := ready.Sub(t0)
		if err != nil {
			l.fail(err)
			if _, typed := server.IsServerError(err); typed {
				continue
			}
			return
		}
		if se.Code != server.StreamOK || int(se.Served) != streamLoads || k != streamLoads {
			l.fail(fmt.Errorf("stream seq %d ended %q after %d/%d loads: %s", rq.round.Seq, se.Code, k, se.Served, se.Msg))
			continue
		}
		l.lat = append(l.lat, ms(d))
	}
}

// driveOpen is one connection of the open loop: it takes the next request
// off the shared schedule whenever it is free, sends it when due, and times
// it from its due time.
func (p *plan) driveOpen(cl *server.Client, c int, t *timerFD, epoch time.Time, next *atomic.Int64, l *live) {
	for {
		i := int(next.Add(1) - 1)
		if i >= len(p.reqs) {
			return
		}
		rq := &p.reqs[i]
		free := time.Now()
		due := epoch.Add(rq.due)
		if err := t.sleep(time.Until(due)); err != nil {
			l.fail(err)
			return
		}
		sent := time.Now()
		rr, err := cl.Round(rq.round)
		done := time.Now()
		if err != nil {
			l.fail(err)
			if _, typed := server.IsServerError(err); typed {
				continue
			}
			return
		}
		lat, lag := openTiming(due, free, sent, done)
		l.lat = append(l.lat, ms(lat))
		l.lag = append(l.lag, ms(lag))
		l.record(p.hellos[c], rq.round, rq.deviant, rr)
	}
}

// rerun re-executes each sample in process on a fresh session built from
// the connection's Hello and byte-compares the encoded results with what
// the daemon answered. It returns the mismatches.
func rerun(samples []sample) []error {
	var mu sync.Mutex
	var errs []error
	work := make(chan sample)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				if err := rerunOne(s); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, s := range samples {
		work <- s
	}
	close(work)
	wg.Wait()
	return errs
}

func rerunOne(s sample) error {
	params, err := server.RoundParams(s.hello.Size, s.round)
	if err != nil {
		return fmt.Errorf("re-run seq %d: %w", s.round.Seq, err)
	}
	res, err := protocol.NewSession(s.hello.Size, s.hello.Seed).Run(params)
	if err != nil {
		return fmt.Errorf("re-run seq %d: %w", s.round.Seq, err)
	}
	want := wire.AppendRoundResult(nil, server.ResultToWire(s.round.Seq, res))
	if got := wire.AppendRoundResult(nil, s.got); !bytes.Equal(got, want) {
		return fmt.Errorf("seq %d: served result differs from the in-process re-run", s.round.Seq)
	}
	return nil
}
