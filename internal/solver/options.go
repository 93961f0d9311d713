package solver

import (
	"context"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// Option configures a Solve call. Options replace the former proliferation
// of entry points (Solve/SolveCtx/compiled-plan/parallel variants) with one
// signature; the old names remain as thin wrappers over this one.
type Option func(*config)

// config is the resolved option set of one Solve call.
type config struct {
	opts    Options           // limits + degradation knobs (the legacy Options struct)
	shards  int               // 0 = monolithic; >0 = cap data shards per component; <0 = auto
	plans   PlanSource        // nil = compile per call
	observe func(BatchResult) // SolveBatch streaming callback; nil = none
	memo    *ShardMemo        // nil = no per-shard verdict memoization
}

// PlanSource supplies compiled plans; *plan.Cache implements it. Solve uses
// it to amortize classification and rewriting compilation across calls.
type PlanSource interface {
	Get(ctx context.Context, q cq.Query) (*Plan, error)
}

// WithBudget caps the governor's search steps (0 = unlimited).
func WithBudget(n int64) Option {
	return func(c *config) { c.opts.Budget = n }
}

// WithDeadline bounds the solve's wall-clock time (0 = no deadline). The
// deadline covers the whole solve: under sharding it is shared by all
// shards, not split — only the step budget is divided.
func WithDeadline(d time.Duration) Option {
	return func(c *config) { c.opts.Timeout = d }
}

// WithShards enables component-partitioned solving with at most n data
// shards per query component (see internal/shard). n < 0 selects an
// automatic shard count (GOMAXPROCS); n == 0 (the default) solves the
// instance monolithically. Sharded and monolithic solves return identical
// conclusive verdicts; sharding changes only how the work is scheduled.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithShardMemo consults (and fills) the given per-shard verdict memo
// during sharded solving: shards whose content fingerprints hit the memo
// reuse their conclusive verdicts instead of being re-solved. Effective
// only together with WithShards (the memo works at shard granularity);
// conclusive verdicts are unchanged — see ShardMemo.
func WithShardMemo(m *ShardMemo) Option {
	return func(c *config) { c.memo = m }
}

// WithPlanCache routes plan compilation through ps (typically a *plan.Cache)
// so repeated queries share one classification and compiled rewriting.
func WithPlanCache(ps PlanSource) Option {
	return func(c *config) { c.plans = ps }
}

// WithDegradeSamples caps the Monte-Carlo samples drawn after an
// exponential-path cutoff; 0 means the solver default (1024), negative
// disables the degradation pass.
func WithDegradeSamples(n int) Option {
	return func(c *config) { c.opts.DegradeSamples = n }
}

// WithSampleSeed seeds the degradation sampler (deterministic per seed).
func WithSampleSeed(seed int64) Option {
	return func(c *config) { c.opts.SampleSeed = seed }
}

// WithSampleTimeout bounds the degradation sampling pass (0 = default
// 250ms).
func WithSampleTimeout(d time.Duration) Option {
	return func(c *config) { c.opts.SampleTimeout = d }
}

// WithObserver streams batch progress: SolveBatch invokes fn once per item,
// as that item completes, before the batch call returns. Calls are
// serialized (fn needs no locking) but arrive in completion order, not item
// order — use BatchResult.Index to reorder. Solve ignores this option.
func WithObserver(fn func(BatchResult)) Option {
	return func(c *config) { c.observe = fn }
}

// WithFault installs a fault-injection hook on the governor (testing).
func WithFault(f func(step int64) error) Option {
	return func(c *config) { c.opts.Fault = f }
}

// WithOptions applies a whole legacy Options struct at once; the bridge the
// deprecated wrappers use.
func WithOptions(opts Options) Option {
	return func(c *config) { c.opts = opts }
}

// newConfig folds opts into a config.
func newConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// Solve decides CERTAINTY(q) on d under ctx. It is the package's unified
// entry point: the zero-option call is SolveCtx with no limits, and the
// functional options add step budgets (WithBudget), wall-clock deadlines
// (WithDeadline), compiled-plan reuse (WithPlanCache), and
// component-partitioned parallel execution (WithShards). Conclusive
// verdicts are identical across every option combination; options change
// resource limits and scheduling, never answers.
func Solve(ctx context.Context, q cq.Query, d *db.DB, opts ...Option) (Verdict, error) {
	cfg := newConfig(opts)
	if cfg.shards == 0 && cfg.plans == nil {
		return SolveCtx(ctx, q, d, cfg.opts)
	}
	var p *Plan
	var err error
	if cfg.plans != nil {
		p, err = cfg.plans.Get(ctx, q)
	} else {
		p, err = CompilePlan(q)
	}
	if err != nil {
		return Verdict{}, err
	}
	if cfg.shards == 0 {
		return p.SolveCtx(ctx, d, cfg.opts)
	}
	v, _, err := p.SolveShardedMemo(ctx, d, cfg.shards, cfg.opts, cfg.memo)
	return v, err
}
