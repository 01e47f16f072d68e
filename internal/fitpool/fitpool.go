// Package fitpool bounds the process-wide concurrency of model refits.
//
// Every subsystem that parallelises fitting — the fleet engine's
// asynchronous per-vehicle refits, the evaluation grid's per-vehicle
// detector fits and regress's per-channel model training — draws
// workers from one GOMAXPROCS-sized token pool instead of spawning its
// own unbounded goroutines. That keeps a fleet engine refit from
// oversubscribing the machine when the evaluation grid is also running,
// and it makes nesting safe by construction: a parallel fit that was
// itself started from a pool worker finds no free tokens and simply
// runs serially inline, with zero goroutines spawned. On a single-CPU
// host every Run call degenerates to an inline loop.
//
// Determinism contract: Run hands work items out by an atomic counter,
// so *which* goroutine runs an item, and when, is scheduling-dependent —
// callers that need deterministic results must make each item's output
// independent of the others (write to per-item slots, reduce in item
// order). Every caller in this repository follows that pattern; see
// DESIGN.md §11.
package fitpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// state is one sizing of the pool. SetWorkers publishes a new one whole;
// every other function only loads the pointer, so the accessors every
// nested Run calls cost an atomic load, not a process-wide lock.
type state struct {
	tokens  chan struct{}
	workers int
}

var cur atomic.Pointer[state]

func init() { SetWorkers(runtime.GOMAXPROCS(0)) }

// SetWorkers resizes the pool to n tokens (minimum 1). It is intended
// for process start-up and tests; resizing while fits are in flight
// redefines the bound only for subsequent acquisitions.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s := &state{tokens: make(chan struct{}, n), workers: n}
	for i := 0; i < n; i++ {
		s.tokens <- struct{}{}
	}
	cur.Store(s)
}

// Workers returns the pool size.
func Workers() int { return cur.Load().workers }

func pool() chan struct{} { return cur.Load().tokens }

// Acquire blocks until a fit token is free. Pair with Release.
func Acquire() { <-pool() }

// Release returns a token taken by Acquire or TryAcquire.
func Release() { pool() <- struct{}{} }

// TryAcquire takes a token only if one is free.
func TryAcquire() bool {
	select {
	case <-pool():
		return true
	default:
		return false
	}
}

// Run executes fn(item) for every item in [0, n), using the calling
// goroutine and up to bound-1 helper goroutines, each gated on a free
// pool token. Items are handed out by an atomic counter. Run returns
// when every item has completed. With bound <= 1, a single-item
// workload, or no free tokens, it is a plain inline loop.
func Run(n, bound int, fn func(item int)) {
	if n <= 0 {
		return
	}
	if bound > n {
		bound = n
	}
	if bound <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < bound; w++ {
		if !TryAcquire() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer Release()
			work()
		}()
	}
	work()
	wg.Wait()
}
