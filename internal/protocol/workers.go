package protocol

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Processor goroutines come from one process-wide pool of parked workers.
// The goroutines keep processors apart rather than run them in parallel:
// every phase moves along the chain one hop at a time. A goroutine started
// fresh for each round begins on a small stack and grows it again on the
// round's first deep call (ed25519 through the PKI memo, SHA-256 in an
// evidence sink), which cost a fifth of an in-memory daemon's CPU
// (EXPERIMENTS.md §A27). A parked worker keeps its grown stack.
//
// The pool is shared by every Session rather than parked in each one: a
// daemon keeps its sessions for as long as it runs, so per-session workers
// would park size goroutines per session ever created, while the shared
// pool holds at most the workers of the rounds that ran at once.
//
// A worker is a goroutine ranging over its job channel; closing the channel
// ends it. The pool is a stack of those channels, not a sync.Pool: a
// sync.Pool hides one item per P in a slot only that P can take, so a round
// scheduled on another P would start a worker although one is parked. Idle
// workers still go at the pace of the GC: at the end of each cycle the pool
// stops the workers that stayed parked through the whole previous cycle, so
// a worker left unused is gone within two cycles.

// procJob is one processor's part of one round.
type procJob struct {
	r *runner
	i int
}

var (
	idle struct {
		sync.Mutex
		workers []chan procJob // parked; the most recently parked last
		low     int            // fewest parked since the last GC cycle
	}
	gcWatch        sync.Once
	workersStarted atomic.Int64
)

// WorkersStarted reports how many processor goroutines the process has
// started. It stays flat while rounds reuse parked workers and rises only
// when more rounds run at once than before, or after idle workers were
// stopped.
func WorkersStarted() int64 { return workersStarted.Load() }

func startWorker() chan procJob {
	gcWatch.Do(func() { runtime.SetFinalizer(&gcTick{}, onGC) })
	jobs := make(chan procJob)
	go work(jobs)
	workersStarted.Add(1)
	return jobs
}

func work(jobs <-chan procJob) {
	for j := range jobs {
		j.r.runProcessor(j.i)
		j.r.procWG.Done()
	}
}

// gcTick is unreachable from its creation on: its finalizer runs once per
// GC cycle and re-arms itself. (A 16-byte array keeps it out of the tiny
// allocator, whose blocks are freed together.)
type gcTick [16]byte

// onGC stops the workers that stayed parked through the cycle that just
// ended: the bottom idle.low of the stack, which no round took since.
func onGC(t *gcTick) {
	idle.Lock()
	n := idle.low
	for _, jobs := range idle.workers[:n] {
		close(jobs)
	}
	kept := copy(idle.workers, idle.workers[n:])
	clear(idle.workers[kept:])
	idle.workers = idle.workers[:kept]
	idle.low = kept
	idle.Unlock()
	runtime.SetFinalizer(t, onGC)
}

// runProcessors runs Phases I–IV of one round, processor i on worker i, and
// waits for every processor to return. The workers then park again and the
// runner forgets them, so a session never pins a worker.
func (r *runner) runProcessors() {
	idle.Lock()
	top := len(idle.workers)
	n := min(top, r.size)
	copy(r.workers, idle.workers[top-n:])
	clear(idle.workers[top-n:])
	idle.workers = idle.workers[:top-n]
	idle.low = min(idle.low, top-n)
	idle.Unlock()
	for i := n; i < r.size; i++ {
		r.workers[i] = startWorker()
	}

	r.procWG.Add(r.size)
	for i, jobs := range r.workers {
		jobs <- procJob{r, i}
	}
	r.procWG.Wait()

	idle.Lock()
	idle.workers = append(idle.workers, r.workers...)
	idle.Unlock()
	clear(r.workers)
}
