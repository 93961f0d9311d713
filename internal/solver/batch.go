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
// queries (plan reuse); SolveBatch amortizes both. A non-nil Memo solves
// the item through SolveShardedMemo on the finest partition, as a hosted
// single solve does; leave it nil for one-shot databases.
type BatchItem struct {
	Query cq.Query
	DB    *db.DB
	Memo  *ShardMemo
}

// BatchResult is the outcome of one batch item. Exactly one of Verdict and
// Err is meaningful: Err is non-nil when the item failed outright (e.g. an
// unclassifiable query), in which case Verdict is the zero value. A
// degradation (budget or deadline cutoff) is not an error — it comes back as
// a Verdict with OutcomeUnknown, same as in a single SolveCtx. Report
// accounts for a memoized item's shard reuse (zero without a memo).
type BatchResult struct {
	Index   int
	Verdict Verdict
	Err     error
	Report  DeltaReport
}

const metricBatchItems = "solver_batch_items_total"

func init() {
	obs.Default.Help(metricBatchItems, "Batch items solved, by outcome (error for failed items).")
}

// SolveBatch decides a batch of instances on the bounded worker pool,
// amortizing plan compilation across items with the same canonical query
// through plans: one classification and one compiled rewriting per
// distinct query. Callers without a process-wide cache pass a fresh
// NewPlanCache. Every item without a memo runs Plan.SolveCtx under opts,
// so opts.Sharded shards each item; the fan-out shares the process-wide
// worker gate with the shard layer, so the two compose without
// multiplying goroutines.
// Results come back indexed in item order, one per item, errors inline.
//
// A non-nil observe streams each result as its item completes, before the
// call returns. Calls are serialized (observe needs no locking) but arrive
// in completion order, not item order — use BatchResult.Index to reorder.
// A cancelled ctx stops the fan-out: unstarted items report ctx's error.
func SolveBatch(ctx context.Context, items []BatchItem, opts Options, plans *PlanCache, observe func(BatchResult)) []BatchResult {
	results := make([]BatchResult, len(items))
	for i := range results {
		results[i] = BatchResult{Index: i, Err: ctx.Err()}
		if results[i].Err == nil {
			results[i].Err = context.Canceled // overwritten when the item runs
		}
	}
	var obsMu sync.Mutex
	_ = shard.ForEach(ctx, len(items), func(i int) {
		ictx, sp := obs.StartSpan(ctx, "batch/item")
		sp.SetInt("item", int64(i))
		r := BatchResult{Index: i}
		p, err := plans.Get(ictx, items[i].Query)
		switch {
		case err != nil:
		case items[i].Memo != nil:
			r.Verdict, r.Report, err = p.SolveShardedMemo(ictx, items[i].DB, opts, items[i].Memo)
		default:
			r.Verdict, err = p.SolveCtx(ictx, items[i].DB, opts)
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
		if observe != nil {
			obsMu.Lock()
			observe(r)
			obsMu.Unlock()
		}
	})
	return results
}
