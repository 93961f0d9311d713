package solver

import (
	"context"
	"sync"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/shard"
)

// BatchItem is one CERTAINTY(q) instance of a batch: a query and the
// database to decide it on. Items may share databases (snapshot reuse) or
// queries (plan reuse); SolveBatch amortizes both.
type BatchItem struct {
	Query cq.Query
	DB    *db.DB
}

// BatchResult is the outcome of one batch item. Exactly one of Verdict and
// Err is meaningful: Err is non-nil when the item failed outright (e.g. an
// unclassifiable query), in which case Verdict is the zero value. A
// degradation (budget or deadline cutoff) is not an error — it comes back as
// a Verdict with OutcomeUnknown, same as in a single Solve.
type BatchResult struct {
	Index   int
	Verdict Verdict
	Err     error
}

const metricBatchItems = "solver_batch_items_total"

func init() {
	obs.Default.Help(metricBatchItems, "Batch items solved, by outcome (error for failed items).")
}

// planMemo compiles each distinct canonical query once per batch. When the
// caller supplied a PlanSource it is consulted first (so batches share the
// process-wide cache); otherwise compilation results — including failures —
// are memoized locally for the duration of the batch. Each key's entry is
// resolved under its own sync.Once, so concurrent items carrying the same
// query wait for one compile instead of racing to run their own.
type planMemo struct {
	source  PlanSource
	mu      sync.Mutex
	entries map[string]*planEntry
}

type planEntry struct {
	once sync.Once
	p    *Plan
	err  error
}

func (m *planMemo) get(ctx context.Context, q cq.Query) (*Plan, error) {
	key := cq.CanonicalKey(q)
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		e = &planEntry{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		if m.source != nil {
			e.p, e.err = m.source.Get(ctx, q)
		} else {
			e.p, e.err = CompilePlan(q)
		}
	})
	return e.p, e.err
}

// SolveBatch decides a batch of instances on the bounded worker pool,
// amortizing plan compilation across items with the same canonical query
// (one classification and one compiled rewriting per distinct query, via
// WithPlanCache's source when given, a batch-local memo otherwise). Items
// run concurrently — the fan-out shares the process-wide worker gate with
// the shard layer, so WithShards composes without multiplying goroutines —
// and results come back indexed in item order, one per item, errors inline.
//
// WithObserver streams each result as its item completes, before the call
// returns; see the option for the ordering contract. A cancelled ctx stops
// the fan-out: unstarted items report ctx's error.
func SolveBatch(ctx context.Context, items []BatchItem, opts ...Option) []BatchResult {
	cfg := newConfig(opts)
	results := make([]BatchResult, len(items))
	for i := range results {
		results[i] = BatchResult{Index: i, Err: ctx.Err()}
		if results[i].Err == nil {
			results[i].Err = context.Canceled // overwritten when the item runs
		}
	}
	memo := &planMemo{source: cfg.plans, entries: make(map[string]*planEntry)}
	var obsMu sync.Mutex
	_ = shard.ForEach(ctx, len(items), func(i int) {
		ictx, sp := obs.StartSpan(ctx, "batch/item")
		sp.SetInt("item", int64(i))
		r := BatchResult{Index: i}
		p, err := memo.get(ictx, items[i].Query)
		if err == nil {
			if cfg.shards != 0 {
				r.Verdict, err = p.SolveSharded(ictx, items[i].DB, cfg.shards, cfg.opts)
			} else {
				r.Verdict, err = p.SolveCtx(ictx, items[i].DB, cfg.opts)
			}
		}
		r.Err = err
		if err != nil {
			sp.SetAttr("error", err.Error())
			obs.Default.Counter(metricBatchItems, obs.L{K: "outcome", V: "error"}).Inc()
		} else {
			sp.SetAttr("outcome", outcomeCodes[r.Verdict.Outcome])
			obs.Default.Counter(metricBatchItems, obs.L{K: "outcome", V: outcomeCodes[r.Verdict.Outcome]}).Inc()
		}
		sp.End()
		results[i] = r
		if cfg.observe != nil {
			obsMu.Lock()
			cfg.observe(r)
			obsMu.Unlock()
		}
	})
	return results
}
