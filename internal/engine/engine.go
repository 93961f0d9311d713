// Package engine evaluates Boolean conjunctive queries on uncertain
// databases: satisfaction (db ⊨ q), enumeration of embeddings (valuations θ
// with θ(q) ⊆ db), and purification (Lemma 1).
package engine

import (
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// MatchAtom unifies atom a with fact f under the given partial valuation.
// It returns the extended valuation and true on success; the input valuation
// is not modified.
func MatchAtom(a cq.Atom, f db.Fact, binding cq.Valuation) (cq.Valuation, bool) {
	if a.Rel != f.Rel || len(a.Args) != len(f.Args) || a.KeyLen != f.KeyLen {
		return nil, false
	}
	// First pass without allocating: verify terms already determined.
	var ext cq.Valuation
	for i, t := range a.Args {
		if t.IsConst {
			if t.Value != f.Args[i] {
				return nil, false
			}
			continue
		}
		if v, ok := binding[t.Value]; ok {
			if v != f.Args[i] {
				return nil, false
			}
			continue
		}
		if v, ok := ext[t.Value]; ok {
			if v != f.Args[i] {
				return nil, false
			}
			continue
		}
		if ext == nil {
			ext = make(cq.Valuation)
		}
		ext[t.Value] = f.Args[i]
	}
	out := binding.Clone()
	for k, v := range ext {
		out[k] = v
	}
	return out, true
}

// orderAtoms returns an evaluation order: start from the atom with the
// fewest facts in the set, then greedily prefer atoms with the most
// variables already bound (so the block index applies as often as
// possible).
func orderAtoms(q cq.Query, s BlockSet) []int {
	n := q.Len()
	if n == 0 {
		// The empty query has no atoms to order; without this guard the
		// selection loop below would index q.Atoms[-1].
		return nil
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make(cq.VarSet)
	for len(order) < n {
		best, bestBound, bestSize := -1, -1, -1
		for i, a := range q.Atoms {
			if used[i] {
				continue
			}
			b := a.Vars().Intersect(bound).Len()
			size := 0
			if r := s.in.Rel(a.Rel); r != nil {
				size = s.size(r)
			}
			if best == -1 || b > bestBound || (b == bestBound && size < bestSize) {
				best, bestBound, bestSize = i, b, size
			}
		}
		used[best] = true
		order = append(order, best)
		bound.AddAll(q.Atoms[best].Vars())
	}
	return order
}

// EachEmbedding enumerates all valuations θ over vars(q) with θ(q) ⊆ d,
// stopping early when yield returns false. Returns false iff stopped early.
// The valuation passed to yield is owned by the callee (it is freshly
// allocated per embedding). The search runs on the database's interned
// columnar view (see interned.go) and enumerates embeddings in the order
// of the greedy atom order and fact insertion order.
func EachEmbedding(q cq.Query, d *db.DB, yield func(cq.Valuation) bool) bool {
	cont, _ := eachEmbedding(nil, q, AllBlocks(d), yield)
	return cont
}

// Embeddings returns all embeddings of q in d.
func Embeddings(q cq.Query, d *db.DB) []cq.Valuation {
	var out []cq.Valuation
	EachEmbedding(q, d, func(v cq.Valuation) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Eval reports whether d ⊨ q: some valuation maps every atom of q into d.
// The empty query is true everywhere.
func Eval(q cq.Query, d *db.DB) bool {
	sat, _ := eval(nil, q, AllBlocks(d))
	return sat
}

// EvalRepair reports whether the repair (a fact slice as produced by
// db.DB.EachRepair) satisfies q, without materializing a DB when q is small.
func EvalRepair(q cq.Query, repair []db.Fact) bool {
	return Eval(q, db.RepairDB(repair))
}

// Purify implements Lemma 1: it returns a database purified relative to q —
// every fact A of the result participates in some embedding θ with
// A ∈ θ(q) ⊆ result — such that the result is in CERTAINTY(q) iff d is.
// Whole blocks of irrelevant facts are removed until a fixpoint; d itself
// is returned when it is already purified.
func Purify(q cq.Query, d *db.DB) *db.DB {
	s, _ := purify(nil, q, AllBlocks(d))
	return s.restrict(d)
}

// IsPurified reports whether d is purified relative to q: purification
// keeps every block, that is, every fact occurs in some embedding of q in d.
func IsPurified(q cq.Query, d *db.DB) bool {
	s, _ := purify(nil, q, AllBlocks(d))
	return s.numFacts() == d.Len()
}
