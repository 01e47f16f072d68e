package fitpool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunCoversAllItems(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2, 8} {
		SetWorkers(w)
		for _, n := range []int{0, 1, 5, 100} {
			var hits atomic.Int64
			seen := make([]atomic.Bool, n+1)
			Run(n, 4, func(item int) {
				hits.Add(1)
				if seen[item].Swap(true) {
					t.Errorf("workers=%d n=%d: item %d ran twice", w, n, item)
				}
			})
			if int(hits.Load()) != n {
				t.Fatalf("workers=%d n=%d: ran %d items", w, n, hits.Load())
			}
		}
	}
}

func TestNestedRunStaysSerial(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	SetWorkers(1)
	// With one token held by an outer fit, the inner Run must not block
	// and must complete inline.
	Acquire()
	defer Release()
	// A helper is started before the caller takes its first item and
	// lives until the last one is taken, so every call of fn would see
	// it; a goroutine of an earlier test that is still exiting can only
	// lower the count. done is deliberately unsynchronised: under -race
	// a second goroutine touching it is reported too.
	before := runtime.NumGoroutine()
	done := 0
	Run(10, 10, func(item int) {
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("helper goroutine spawned with no free tokens: %d goroutines, %d before Run", now, before)
		}
		done++
	})
	if done != 10 {
		t.Fatalf("inline run completed %d/10 items", done)
	}
}

func TestTryAcquireBounded(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	SetWorkers(2)
	if !TryAcquire() || !TryAcquire() {
		t.Fatal("could not take the two configured tokens")
	}
	if TryAcquire() {
		t.Fatal("third TryAcquire succeeded on a two-token pool")
	}
	Release()
	if !TryAcquire() {
		t.Fatal("token not reusable after Release")
	}
	Release()
	Release()
}
