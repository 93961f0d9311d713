package engine

import (
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
)

// This file holds the string reference implementations the interned plane
// is differentially tested against: map-backed valuations over a relation
// scan filtered by MatchAtom. The interned plane narrows candidates by block
// probes and postings, which only ever skip facts MatchAtom rejects, so the
// embedding order and the per-node step count must coincide.

// eachEmbeddingIndexed is the reference enumerator: the same greedy atom
// order and the same one-step-per-search-node governor charge as the
// interned plane, over string valuations. g may be nil (no accounting).
func eachEmbeddingIndexed(g *govern.Governor, q cq.Query, d *db.DB, yield func(cq.Valuation) bool) (bool, error) {
	order := orderAtoms(q, AllBlocks(d))
	var rec func(i int, binding cq.Valuation) (bool, error)
	rec = func(i int, binding cq.Valuation) (bool, error) {
		if g != nil {
			if err := g.Step(); err != nil {
				return false, err
			}
		}
		if i == len(order) {
			return yield(binding), nil
		}
		a := q.Atoms[order[i]]
		for _, f := range d.FactsOf(a.Rel) {
			if next, ok := MatchAtom(a, f, binding); ok {
				cont, err := rec(i+1, next)
				if err != nil || !cont {
					return false, err
				}
			}
		}
		return true, nil
	}
	return rec(0, cq.Valuation{})
}

// evalIndexed is the reference implementation of Eval.
func evalIndexed(q cq.Query, d *db.DB) bool {
	found := false
	eachEmbeddingIndexed(nil, q, d, func(cq.Valuation) bool {
		found = true
		return false
	})
	return found
}

// purifyIndexed is the reference implementation of Purify: used facts are
// marked in an ID-keyed map instead of fact-index bitsets.
func purifyIndexed(q cq.Query, d *db.DB) *db.DB {
	cur := d
	for {
		used := make(map[string]struct{}, cur.Len())
		eachEmbeddingIndexed(nil, q, cur, func(v cq.Valuation) bool {
			for _, a := range q.Atoms {
				if f, ok := db.FactFromAtom(a.Substitute(v)); ok {
					used[f.ID()] = struct{}{}
				}
			}
			return true
		})
		// Remove the blocks of all unused facts in one sweep; removing a
		// block can only invalidate further embeddings, never create ones,
		// so iterate to a fixpoint.
		removeBlocks := make(map[string]struct{})
		for _, f := range cur.Facts() {
			if _, ok := used[f.ID()]; !ok {
				removeBlocks[f.BlockID()] = struct{}{}
			}
		}
		if len(removeBlocks) == 0 {
			return cur
		}
		cur = cur.Restrict(func(f db.Fact) bool {
			_, drop := removeBlocks[f.BlockID()]
			return !drop
		})
	}
}
