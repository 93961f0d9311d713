package shard

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/cqa-go/certainty/internal/govern"
)

// ForEach runs fn(i) for every i in [0, n), fanning the calls out across the
// process-wide worker gate (govern.Workers). The calling goroutine always
// participates, so the call makes progress even when the gate is exhausted
// by another fan-out layer — extra goroutines are spawned only for gate
// slots actually acquired, which is what keeps nested layers (a shard join
// inside a batch) from multiplying goroutines past the GOMAXPROCS-derived
// limit.
//
// Indices are claimed from an atomic counter, so the items run in no
// particular order. When ctx is cancelled, no further indices are claimed —
// items already started are fn's responsibility (pass ctx along) — and the
// context's error is returned after all started items finish.
func ForEach(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	gate := govern.Workers()
	var wg sync.WaitGroup
	for spawned := 0; spawned < n-1; spawned++ {
		if !gate.TryAcquire() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer gate.Release()
			work()
		}()
	}
	work()
	wg.Wait()
	return ctx.Err()
}
