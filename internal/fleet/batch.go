package fleet

import (
	"context"
	"errors"
	"sort"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/server"
	"github.com/cqa-go/certainty/internal/shard"
)

// batchGroup is the unit of batch routing: the items of one placement key,
// bound for one replica chain. Unparseable queries group under key "" —
// they still route (deterministically, like any key) so the worker's parser
// produces the exact error bytes a single node would.
type batchGroup struct {
	key  string
	idxs []int // original item indices, ascending
}

// planGroups groups a framed batch's items by placement key, preserving
// index order inside each group. An item without a query is placed by the
// batch-level one, which the worker resolves it to.
func planGroups(f *server.BatchFrame) []batchGroup {
	byKey := make(map[string][]int)
	var keys []string
	for i, it := range f.Items {
		query := it.Query
		if query == "" {
			query = f.Head.Query
		}
		key := ""
		if q, err := cq.ParseQuery(query); err == nil {
			key = shard.PlacementKey(q)
		}
		if _, ok := byKey[key]; !ok {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], i)
	}
	sort.Strings(keys) // deterministic group order for tests and logs
	groups := make([]batchGroup, 0, len(keys))
	for _, k := range keys {
		groups = append(groups, batchGroup{key: k, idxs: byKey[k]})
	}
	return groups
}

// chunks splits one group across replicas when it is large. A group up to
// GroupSplit items rides its primary alone (cache locality); a
// bigger one strides across up to len(order) chunks, chunk j starting its
// failover chain at order[j] — a homogeneous 1000-item batch then actually
// uses N workers instead of scaling 1→N by leaving N−1 idle. Striding only
// moves items between equally-correct replicas, so it never changes
// verdicts.
func (c *Coordinator) chunks(g batchGroup, nBackends int) [][]int {
	n := 1
	if len(g.idxs) > c.cfg.GroupSplit {
		n = (len(g.idxs) + c.cfg.GroupSplit - 1) / c.cfg.GroupSplit
		if n > nBackends {
			n = nBackends
		}
	}
	out := make([][]int, n)
	for pos, idx := range g.idxs {
		out[pos%n] = append(out[pos%n], idx)
	}
	return out
}

// transientItemCode reports whether an item-level error is a property of
// the serving node (worth failing the item over) rather than of the item
// itself (the final answer for that item on any replica).
func transientItemCode(code string) bool { return !permanentCode(code) }

// routeBatch fans one batch across the fleet and emits every item result
// exactly once, in completion order. emit must be safe for concurrent use.
//
// Items group by placement key so each group hits the worker whose caches
// and (in a partitioned deployment) data cover it; oversized groups split
// across replicas. Each chunk streams from its primary and fails over down
// its replica chain on transport failures, stream cuts, whole-request
// errors, and transient item errors — re-dispatching ONLY items whose
// results were never emitted. An item yielded to emit is final; failover
// never replays it, so the client-visible stream has exactly one result
// per index even when a worker dies mid-stream. Items no replica could
// answer come back with the typed unavailable error.
func (c *Coordinator) routeBatch(ctx context.Context, f *server.BatchFrame, emit func(server.BatchItemResult)) {
	groups := planGroups(f)
	type job struct {
		order []*Backend
		idxs  []int
	}
	var jobs []job
	for _, g := range groups {
		order := c.placement(g.key)
		for j, chunk := range c.chunks(g, len(order)) {
			// Chunk j starts its chain at order[j]; the rotation keeps every
			// chunk's failover order a suffix-rotation of the same placement.
			off := j % len(order)
			rot := make([]*Backend, 0, len(order))
			rot = append(rot, order[off:]...)
			rot = append(rot, order[:off]...)
			jobs = append(jobs, job{order: rot, idxs: chunk})
		}
	}
	done := make(chan struct{}, len(jobs))
	for _, jb := range jobs {
		go func(jb job) {
			defer func() { done <- struct{}{} }()
			c.runChunk(ctx, f, jb.idxs, jb.order, emit)
		}(jb)
	}
	for range jobs {
		<-done
	}
}

// runChunk walks one chunk down its replica chain. remaining holds the
// original indices still unanswered; each hop re-streams exactly those,
// in a sub-batch written from the frame's item text.
func (c *Coordinator) runChunk(ctx context.Context, f *server.BatchFrame, idxs []int, order []*Backend, emit func(server.BatchItemResult)) {
	remaining := idxs
	for _, b := range order {
		if len(remaining) == 0 {
			return
		}
		if ctx.Err() != nil {
			break
		}
		body := f.AppendSubBatch(nil, remaining)
		// Per-hop bookkeeping, indexed by sub-batch position: emitted results
		// are final, held results (transient item errors) wait for the next
		// replica, unseen results were lost with the stream.
		emitted := make(map[int]bool, len(remaining))
		held := make(map[int]bool)
		snapshot := remaining
		// Stall watchdog: hedging shields the solve path from partitioned
		// workers, but a batch hop streams from one replica — if that
		// stream yields nothing for BatchStallTimeout the hop is cancelled
		// and the chunk fails over. Progress resets the clock.
		hopCtx, cancelHop := context.WithCancel(ctx)
		stall := time.AfterFunc(c.cfg.BatchStallTimeout, cancelHop)
		err := b.client.SolveStreamBody(hopCtx, body, func(item server.BatchItemResult) {
			stall.Reset(c.cfg.BatchStallTimeout)
			if item.Index < 0 || item.Index >= len(snapshot) || emitted[item.Index] || held[item.Index] {
				return // defensive: a confused or duplicating worker cannot double-emit
			}
			if item.Error != nil && transientItemCode(item.Error.Code) {
				held[item.Index] = true
				return
			}
			sub := item.Index
			item.Index = snapshot[sub]
			emitted[sub] = true
			emit(item)
		})
		stall.Stop()
		stalled := hopCtx.Err() != nil && ctx.Err() == nil
		cancelHop()

		var next []int
		keep := func(includeUnseen bool) {
			for pos, orig := range snapshot {
				if emitted[pos] {
					continue
				}
				if held[pos] || includeUnseen {
					next = append(next, orig)
				}
			}
		}
		switch {
		case err == nil:
			// Clean stream: only held (transient-error) items move on.
			keep(false)
			if len(next) > 0 {
				c.failovers("item").Inc()
				c.logf("fleet: %d batch items held transient errors on %s, failing over", len(next), b.url)
			}
		case ctx.Err() != nil:
			return // caller gone; nobody is reading emit
		default:
			var eb *server.ErrorBody
			if errors.As(err, &eb) && permanentCode(eb.Code) {
				// The sub-request itself is unacceptable (e.g. policy): every
				// replica would refuse it identically, so that IS each
				// remaining item's answer.
				for pos, orig := range snapshot {
					if !emitted[pos] {
						emit(server.BatchItemResult{Index: orig, Error: eb})
					}
				}
				return
			}
			reason := "transport"
			switch {
			case stalled:
				reason = "stall"
				b.setHealth(false, "stall")
			case eb != nil:
				reason = eb.Code
			default:
				// Transport failure or mid-stream cut: stop preferring the node.
				b.setHealth(false, "transport")
			}
			c.failovers(reason).Inc()
			c.logf("fleet: batch stream from %s failed (%v), failing over %d items", b.url, err, len(snapshot))
			// Held and never-seen items go to the next replica. Emitted items
			// do NOT: they are already on the wire.
			keep(true)
		}
		remaining = next
	}
	for _, orig := range remaining {
		emit(server.BatchItemResult{Index: orig, Error: unavailableError(nil)})
	}
}
