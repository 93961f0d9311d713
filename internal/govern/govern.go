// Package govern provides resource governance for the exponential decision
// procedures of CERTAINTY(q). Since the problem is coNP-complete for
// strong-cycle queries (Theorem 2), the exact falsifying-repair search and
// the brute-force ground truth cannot be bounded polynomially; a Governor
// bounds them operationally instead, with a wall-clock deadline, a step
// budget, cooperative cancellation, and a deterministic fault-injection
// hook for testing cancellation paths.
//
// A Governor rides inside a context.Context (Attach/From), so every
// context-aware entry point of the stack — solver.SolveCtx, the engine's
// BlockSet.Eval/Purify, db.EachRepairCtx — shares one step counter and one
// budget for the whole call tree.
package govern

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cqa-go/certainty/internal/obs"
)

// ErrBudget is the sticky error reported once the step budget is exhausted.
var ErrBudget = errors.New("govern: step budget exhausted")

// Governance telemetry, recorded into the process-wide registry: which
// cause stops governed computations (budget, deadline, cancellation,
// injected fault) and how many panics the containment boundary absorbed.
// The handles are resolved once; recording is one atomic add on the cold
// (failure) path only.
var (
	cutoffBudget   = obs.Default.Counter("govern_cutoffs_total", obs.L{K: "cause", V: "budget"})
	cutoffDeadline = obs.Default.Counter("govern_cutoffs_total", obs.L{K: "cause", V: "deadline"})
	cutoffCanceled = obs.Default.Counter("govern_cutoffs_total", obs.L{K: "cause", V: "canceled"})
	cutoffOther    = obs.Default.Counter("govern_cutoffs_total", obs.L{K: "cause", V: "other"})
	panicsTotal    = obs.Default.Counter("govern_panics_contained_total")
)

func init() {
	obs.Default.Help("govern_cutoffs_total", "Governed computations stopped, by cause.")
	obs.Default.Help("govern_panics_contained_total", "Panics converted to errors at the API boundary.")
}

// PanicError wraps a recovered panic value so that malformed inputs deep in
// the stack surface as errors at the public API boundary instead of
// crashing a long-running process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("govern: recovered panic: %v", e.Value)
}

// Options configures a Governor. The zero value imposes no limits beyond
// the parent context's own cancellation.
type Options struct {
	// Budget caps the total number of Step calls; 0 means unlimited.
	Budget int64
	// Timeout bounds wall-clock time from New; 0 means no deadline.
	Timeout time.Duration
	// CheckEvery is the number of steps between context polls (the budget
	// is checked on every step). Defaults to 256.
	CheckEvery int
	// Fault, when non-nil, is invoked on every step with the step count; a
	// non-nil return aborts the computation with that error. Used to make
	// cancellation deterministic in tests.
	Fault func(step int64) error
}

// Governor enforces Options over a computation. It is safe for concurrent
// use; the step counter and the failure flag are atomics, so parallel
// solvers can share one Governor.
type Governor struct {
	ctx    context.Context
	cancel context.CancelFunc
	budget int64
	every  int64
	fault  func(int64) error
	steps  atomic.Int64
	failed atomic.Bool
	mu     sync.Mutex
	err    error
}

// New derives a Governor from a parent context. Close must be called to
// release the deadline timer.
func New(ctx context.Context, opts Options) *Governor {
	every := int64(opts.CheckEvery)
	if every <= 0 {
		every = 256
	}
	g := &Governor{budget: opts.Budget, every: every, fault: opts.Fault}
	if opts.Timeout > 0 {
		g.ctx, g.cancel = context.WithTimeout(ctx, opts.Timeout)
	} else {
		g.ctx, g.cancel = context.WithCancel(ctx)
	}
	return g
}

type ctxKey struct{}

// Attach returns a context carrying the Governor, derived from the
// Governor's own (deadline-carrying) context, so that the whole governed
// call tree shares its budget.
func (g *Governor) Attach() context.Context {
	return context.WithValue(g.ctx, ctxKey{}, g)
}

// From extracts the Governor attached to ctx. When none is attached it
// returns a fresh limitless Governor that merely polls ctx for
// cancellation, so context-aware functions can call From unconditionally.
// Governors created this way need no Close.
func From(ctx context.Context) *Governor {
	if g, ok := ctx.Value(ctxKey{}).(*Governor); ok {
		return g
	}
	return &Governor{ctx: ctx, every: 256}
}

// Close releases the Governor's timer. It does not cancel in-flight work
// retroactively; sticky errors remain readable through Err.
func (g *Governor) Close() {
	if g.cancel != nil {
		g.cancel()
	}
}

// Context returns the Governor's context (carrying its deadline, if any).
func (g *Governor) Context() context.Context { return g.ctx }

// Steps returns the number of steps taken so far.
func (g *Governor) Steps() int64 { return g.steps.Load() }

// Remaining returns the unspent step budget, or -1 when unlimited.
func (g *Governor) Remaining() int64 {
	if g.budget <= 0 {
		return -1
	}
	if r := g.budget - g.steps.Load(); r > 0 {
		return r
	}
	return 0
}

// Err returns the sticky error that stopped the computation, or nil while
// it may proceed. After the first non-nil Step result, Err reports the same
// error to every caller — including ones that observe the failure through a
// different function in the call tree.
func (g *Governor) Err() error {
	if !g.failed.Load() {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

func (g *Governor) fail(err error) error {
	first := false
	g.mu.Lock()
	if g.err == nil {
		g.err = err
		first = true
	} else {
		err = g.err // first failure wins
	}
	g.mu.Unlock()
	g.failed.Store(true)
	if g.cancel != nil {
		g.cancel()
	}
	if first {
		cutoffCounter(err).Inc()
	}
	return err
}

// cutoffCounter maps the sticky error that stopped a governed computation to
// its cause-labelled counter.
func cutoffCounter(err error) *obs.Counter {
	switch {
	case errors.Is(err, ErrBudget):
		return cutoffBudget
	case errors.Is(err, context.DeadlineExceeded):
		return cutoffDeadline
	case errors.Is(err, context.Canceled):
		return cutoffCanceled
	default:
		return cutoffOther
	}
}

// Step records one unit of work and reports whether the computation must
// stop: the fault hook fired, the budget is exhausted, or the context was
// cancelled (polled every CheckEvery steps). The error is sticky — once
// non-nil, every subsequent Step returns it immediately.
func (g *Governor) Step() error {
	if g.failed.Load() {
		return g.Err()
	}
	n := g.steps.Add(1)
	if g.fault != nil {
		if err := g.fault(n); err != nil {
			return g.fail(err)
		}
	}
	if g.budget > 0 && n > g.budget {
		return g.fail(ErrBudget)
	}
	if n%g.every == 0 {
		select {
		case <-g.ctx.Done():
			return g.fail(g.ctx.Err())
		default:
		}
	}
	return nil
}

// Safe runs fn, converting a panic into a *PanicError. It is the panic
// containment used at public API boundaries: no query or database input
// may crash a long-running server process.
func Safe(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			panicsTotal.Inc()
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
