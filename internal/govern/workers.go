package govern

import (
	"runtime"
	"sync/atomic"
)

// WorkerGate is a process-wide budget on *extra* goroutines spawned by the
// solver's fan-out layers. Two layers can fan out at once — SolveBatch fans
// out over batch items, and inside one of those the shard join fans out
// again over per-component sub-solves. Without a shared budget the layers
// multiply: b items × s shards goroutines for a machine with GOMAXPROCS
// cores. The gate makes every layer draw from one pool of
// GOMAXPROCS-derived slots instead.
//
// The contract is non-blocking on purpose: TryAcquire either grants a slot
// (the caller may spawn one goroutine and must Release when it exits) or
// refuses, in which case the caller does the work on its own goroutine.
// Since every fan-out helper also works inline, refusal degrades parallelism
// but never progress, and no lock ordering between layers exists to get
// wrong.
type WorkerGate struct {
	sem chan struct{}
}

// NewWorkerGate returns a gate with n spawn slots (n < 1 is treated as 1).
func NewWorkerGate(n int) *WorkerGate {
	if n < 1 {
		n = 1
	}
	return &WorkerGate{sem: make(chan struct{}, n)}
}

// TryAcquire claims a spawn slot without blocking. A true result obliges the
// caller to call Release exactly once when the spawned goroutine exits.
func (g *WorkerGate) TryAcquire() bool {
	select {
	case g.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (g *WorkerGate) Release() { <-g.sem }

// Limit is the gate's slot capacity.
func (g *WorkerGate) Limit() int { return cap(g.sem) }

// InUse is the number of currently claimed slots (approximate under
// concurrency; exact when the gate is quiescent).
func (g *WorkerGate) InUse() int { return len(g.sem) }

// workers is the process-wide gate shared by every fan-out layer. Sized to
// GOMAXPROCS: with every caller also working inline, the steady-state
// goroutine count of a saturated solve is at most GOMAXPROCS extra
// goroutines regardless of how deeply the fan-out layers nest.
var workers atomic.Pointer[WorkerGate]

func init() {
	workers.Store(NewWorkerGate(runtime.GOMAXPROCS(0)))
}

// Workers returns the process-wide worker gate.
func Workers() *WorkerGate { return workers.Load() }

// SetWorkerLimit swaps the process-wide gate for one with n slots and
// returns a restore function. Test hook: production code never resizes the
// gate. Swapping while solves are in flight is safe — goroutines spawned
// under the old gate release into the old gate, which they still reference.
func SetWorkerLimit(n int) (restore func()) {
	old := workers.Swap(NewWorkerGate(n))
	return func() { workers.Store(old) }
}
