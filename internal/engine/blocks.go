package engine

import (
	"context"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
)

// One enumeration counter for the whole engine: resolved once, one atomic
// add per governed search (not per search node — the governor already
// counts nodes as steps).
var embeddingEnumerations = obs.Default.Counter("engine_embedding_enumerations_total")

func init() {
	obs.Default.Help("engine_embedding_enumerations_total", "Governed embedding enumerations started (one per evaluation or purification round).")
}

// BlockSet is a sub-instance of a database: a set of whole blocks per
// relation over the database's one interned view. The polynomial decision
// procedures build every sub-instance their proofs construct — Lemma 1's
// purified database, Lemma 8's recursion, Sublemma 5's union — as a
// BlockSet instead of a fresh *db.DB. Whole blocks suffice: purification
// drops whole blocks, and the partitions of Theorem 3's base case follow
// primary keys.
//
// The zero keep map stands for every block of every relation (AllBlocks);
// otherwise a relation missing from it has no block in the set.
type BlockSet struct {
	in   *db.Interned
	keep map[*db.IRel]bitset // block ordinals kept, per relation
}

// AllBlocks returns the whole database as a block set over its interned
// view.
func AllBlocks(d *db.DB) BlockSet { return BlockSet{in: d.Interned()} }

// NewBlockSet returns an empty block set over in, to be grown with Add.
func NewBlockSet(in *db.Interned) BlockSet {
	return BlockSet{in: in, keep: make(map[*db.IRel]bitset)}
}

// Interned returns the view the set's blocks belong to.
func (s BlockSet) Interned() *db.Interned { return s.in }

// Has reports whether block b of r is in the set.
func (s BlockSet) Has(r *db.IRel, b uint32) bool {
	if s.keep == nil {
		return true
	}
	k := s.keep[r]
	return k != nil && k.get(b)
}

// Add puts block b of r into a set made by NewBlockSet.
func (s BlockSet) Add(r *db.IRel, b uint32) {
	k := s.keep[r]
	if k == nil {
		k = newBitset(r.NumBlocks())
		s.keep[r] = k
	}
	k.set(b)
}

// Empty reports whether the set holds no fact.
func (s BlockSet) Empty() bool { return s.numFacts() == 0 }

// size returns the number of facts of r in the set.
func (s BlockSet) size(r *db.IRel) int {
	if s.keep == nil {
		return r.NumFacts()
	}
	k := s.keep[r]
	n := 0
	for b := 0; k != nil && b < r.NumBlocks(); b++ {
		if k.get(uint32(b)) {
			n += len(r.BlockSpan(b))
		}
	}
	return n
}

// numFacts returns the number of facts in the set.
func (s BlockSet) numFacts() int {
	if s.keep == nil {
		return s.in.NumFacts()
	}
	n := 0
	for r := range s.keep {
		n += s.size(r)
	}
	return n
}

// Eval is the governed Eval over the set: one governor step is charged per
// search node, and the search aborts with the governor's error on
// cancellation, deadline, or budget exhaustion.
func (s BlockSet) Eval(ctx context.Context, q cq.Query) (bool, error) {
	embeddingEnumerations.Inc()
	return eval(govern.From(ctx), q, s)
}

// Purify is the governed Purify over the set: Lemma 1 as a fixpoint that
// drops whole blocks from the set, charging the governor for each round's
// embedding search. The result holds only blocks of the query's relations.
func (s BlockSet) Purify(ctx context.Context, q cq.Query) (BlockSet, error) {
	return purify(govern.From(ctx), q, s)
}

// restrict materializes the set as a sub-database of d, the database its
// view was built from, keeping d's fact insertion order. A set holding
// every fact of d yields d itself.
func (s BlockSet) restrict(d *db.DB) *db.DB {
	if s.numFacts() == d.Len() {
		return d
	}
	cursor := make(map[string]uint32)
	return d.Restrict(func(f db.Fact) bool {
		i := cursor[f.Rel]
		cursor[f.Rel] = i + 1
		r := s.in.Rel(f.Rel)
		return s.Has(r, r.BlockOfFact[i])
	})
}
