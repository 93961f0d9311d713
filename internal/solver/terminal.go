package solver

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/jointree"
)

// CertainTerminal decides db ∈ CERTAINTY(q) in polynomial time for acyclic
// self-join-free queries all of whose attack cycles are weak and terminal,
// implementing the proof of Theorem 3:
//
//   - Induction step: while an unattacked atom F exists, the query is
//     certain iff for some constant vector ā over key(F) (equivalently:
//     for some block of F's relation; Corollary 8.11 of [Wijsen, TODS
//     2012]), after purification every fact of that block unifies with F
//     and makes the instantiated remainder certain (Lemma 8). Lemma 5
//     guarantees the remainder's attack cycles stay weak and terminal.
//   - Base case: every atom lies on a weak terminal 2-cycle; by Lemma 6
//     the attack graph is a disjoint union of 2-cycles {Fi, Gi}. The facts
//     of each cycle's relations are partitioned by the values of the
//     variables shared with other cycles (contained in both keys by
//     Lemma 7); each partition is decided with the two-atom weak-cycle
//     solver, and by Sublemma 5 the query is certain iff the union of the
//     certain partitions satisfies q.
//
// Every sub-instance the proof builds — the purified instance of Lemma 1,
// the recursion of Lemma 8, the partitions and their union of Sublemma 5 —
// is a block set over d's one interned view; no intermediate database is
// built. The governor attached to ctx bounds the recursive induction steps
// as well as the embedded purification passes.
func CertainTerminal(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	return certainTerminal(ctx, q, engine.AllBlocks(d))
}

// certainTerminal is CertainTerminal over the block set s.
func certainTerminal(ctx context.Context, q cq.Query, s engine.BlockSet) (bool, error) {
	if err := govern.From(ctx).Step(); err != nil {
		return false, err
	}
	if q.IsEmpty() {
		return true, nil
	}
	s, err := s.Purify(ctx, q)
	if err != nil {
		return false, err
	}
	if s.Empty() {
		return false, nil
	}
	g, err := core.BuildAttackGraph(q, jointree.TieBreakLex)
	if err != nil {
		return false, err
	}
	if !g.AllCyclesWeakAndTerminal() {
		return false, fmt.Errorf("solver: CertainTerminal requires all attack cycles weak and terminal: %s", q)
	}
	if un := g.Unattacked(); len(un) > 0 {
		return terminalStep(ctx, q, un[0], s)
	}
	return terminalBase(ctx, q, g, s)
}

// terminalStep handles the induction step for unattacked atom q.Atoms[fi]
// over the purified set s.
func terminalStep(ctx context.Context, q cq.Query, fi int, s engine.BlockSet) (bool, error) {
	F := q.Atoms[fi]
	rest := q.Without(fi)
	in := s.Interned()
	r := relOf(in, F)
	if r == nil {
		return false, nil
	}
	vars := F.Vars().Sorted()
	vals := make([]uint32, len(vars))
	// By Lemma 8 a block qualifies iff every fact of it unifies with F and
	// leaves a certain remainder. (Facts of the block outside F's pattern
	// make the block unusable: a repair choosing such a fact has no F-image
	// with this key.) A block whose key contradicts F's constants fails on
	// its first fact, so scanning every block of the set finds exactly the
	// candidates a key probe would.
	blockOK := func(b int) (bool, error) {
		for _, fi := range r.BlockSpan(b) {
			if !unify(F, in, r, fi, vars, vals) {
				return false, nil
			}
			theta := make(cq.Valuation, len(vars))
			for i, v := range vars {
				theta[v] = in.Syms.MustString(vals[i])
			}
			sub, err := certainTerminal(ctx, rest.Substitute(theta), s)
			if err != nil || !sub {
				return false, err
			}
		}
		return true, nil
	}
	for b := 0; b < r.NumBlocks(); b++ {
		if !s.Has(r, uint32(b)) {
			continue
		}
		ok, err := blockOK(b)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// terminalBase handles the base case: the attack graph is a disjoint union
// of weak terminal 2-cycles and s is purified relative to q.
func terminalBase(ctx context.Context, q cq.Query, g *core.AttackGraph, s engine.BlockSet) (bool, error) {
	cycles := g.TerminalWeakCycles()
	// Every atom must belong to exactly one cycle.
	inCycle := make(map[int]bool)
	for _, c := range cycles {
		inCycle[c.F] = true
		inCycle[c.G] = true
	}
	if len(inCycle) != q.Len() {
		return false, fmt.Errorf("solver: base case expects every atom on a 2-cycle: %s", q)
	}

	// Shared variables x̄_i: variables of cycle i occurring in other cycles.
	cycleVars := make([]cq.VarSet, len(cycles))
	for i, c := range cycles {
		cycleVars[i] = q.Atoms[c.F].Vars().Union(q.Atoms[c.G].Vars())
	}
	in := s.Interned()
	good := engine.NewBlockSet(in) // ⋃ T db_i U: union of certain partitions
	var buf []byte

	for i, c := range cycles {
		shared := make(cq.VarSet)
		for j := range cycles {
			if j != i {
				shared.AddAll(cycleVars[i].Intersect(cycleVars[j]))
			}
		}
		sharedSeq := shared.Sorted()
		atoms := [2]cq.Atom{q.Atoms[c.F], q.Atoms[c.G]}
		rels := [2]*db.IRel{relOf(in, atoms[0]), relOf(in, atoms[1])}

		// Partition db_i (the blocks of the cycle's relations) by the value
		// vector of the shared variables. Lemma 7 puts the shared variables
		// inside both keys, so the vector is read off a block's key and
		// every partition is a block set.
		partitions := make(map[string]*[2][]uint32)
		for side, a := range atoms {
			pos, err := keyPositions(a, sharedSeq)
			if err != nil {
				return false, err
			}
			r := rels[side]
			for b := 0; r != nil && b < r.NumBlocks(); b++ {
				if !s.Has(r, uint32(b)) {
					continue
				}
				first := r.BlockSpan(b)[0]
				buf = buf[:0]
				for _, p := range pos {
					buf = binary.LittleEndian.AppendUint32(buf, r.Cols[p][first])
				}
				part := partitions[string(buf)]
				if part == nil {
					part = new([2][]uint32)
					partitions[string(buf)] = part
				}
				part[side] = append(part[side], uint32(b))
			}
		}
		for _, part := range partitions {
			certain, err := certainTwoAtomWeak(atoms[0], atoms[1], in, *part)
			if err != nil {
				return false, err
			}
			if !certain {
				continue
			}
			for side, r := range rels {
				for _, b := range part[side] {
					good.Add(r, b)
				}
			}
		}
	}
	// Sublemma 5: db ∈ CERTAINTY(q) ⟺ ⋃ T db_i U ⊨ q.
	return good.Eval(ctx, q)
}

// keyPositions returns, for each variable, a primary-key position of a
// holding it. Lemma 7 guarantees one for the variables a 2-cycle of the
// base case shares with other cycles.
func keyPositions(a cq.Atom, vars []string) ([]int, error) {
	pos := make([]int, len(vars))
	for i, v := range vars {
		pos[i] = slices.IndexFunc(a.Args[:a.KeyLen], func(t cq.Term) bool { return t.IsVar() && t.Value == v })
		if pos[i] < 0 {
			return nil, fmt.Errorf("solver: shared variable %s outside key(%s)", v, a)
		}
	}
	return pos, nil
}
