package solver

import (
	"context"
	"sort"

	"github.com/cqa-go/certainty/internal/db"
)

// Delta describes one mutation batch against a database: the facts inserted
// and the facts deleted. The facts may be the raw request batch rather than
// the effective (normalized) one — the touched-block set of the raw batch
// is a superset of the effective one, and invalidating a superset is always
// safe (content addressing keeps untouched shards hitting regardless).
type Delta struct {
	Ins []db.Fact
	Del []db.Fact
}

// TouchedBlocks returns the sorted, deduplicated block IDs the delta's
// facts belong to — the (relation, block) keys a mutation can possibly
// affect, and exactly what ShardMemo.Invalidate consumes.
func (dl Delta) TouchedBlocks() []string {
	seen := make(map[string]struct{}, len(dl.Ins)+len(dl.Del))
	bids := make([]string, 0, len(dl.Ins)+len(dl.Del))
	for _, fs := range [2][]db.Fact{dl.Ins, dl.Del} {
		for _, f := range fs {
			bid := f.BlockID()
			if _, ok := seen[bid]; ok {
				continue
			}
			seen[bid] = struct{}{}
			bids = append(bids, bid)
		}
	}
	sort.Strings(bids)
	return bids
}

// DeltaReport accounts for one memoized sharded solve: how many shard
// sub-verdicts were reused from the memo, how many were recomputed, and how
// many memo entries the delta's invalidation removed. Reused + recomputed
// can be less than the decomposition's shard count when the combine
// short-circuited (a certain shard settles its component's disjunction, a
// not-certain component settles the conjunction).
type DeltaReport struct {
	ShardsReused     int
	ShardsRecomputed int
	Invalidated      int
}

// Resolve is the incremental entry point of delta re-solve: given the
// post-mutation database d and the delta that produced it, it invalidates
// the memo entries the delta's blocks cover, then re-solves with the shard
// memo — recomputing exactly the shards whose content changed and reusing
// the memoized conclusive verdicts of the rest, recombined with the exact
// OR/AND algebra of the shard join. Conclusive verdicts are byte-identical
// to a from-scratch sharded solve of d; the report says how much work the
// memo saved.
//
// maxShards and opts behave as in SolveShardedMemo. memo may be nil, in
// which case Resolve degenerates to a full re-solve with an all-recomputed
// report.
func (p *Plan) Resolve(ctx context.Context, d *db.DB, dl Delta, memo *ShardMemo, maxShards int, opts Options) (Verdict, DeltaReport, error) {
	var rep DeltaReport
	if memo != nil {
		rep.Invalidated = memo.Invalidate(dl.TouchedBlocks())
	}
	v, solveRep, err := p.SolveShardedMemo(ctx, d, maxShards, opts, memo)
	rep.ShardsReused = solveRep.ShardsReused
	rep.ShardsRecomputed = solveRep.ShardsRecomputed
	return v, rep, err
}
