package solver

import (
	"context"
	"fmt"

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
// The governor attached to ctx bounds the recursive induction steps as well
// as the embedded purification passes.
func CertainTerminal(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	if err := govern.From(ctx).Step(); err != nil {
		return false, err
	}
	if q.IsEmpty() {
		return true, nil
	}
	d, err := engine.PurifyCtx(ctx, q, d)
	if err != nil {
		return false, err
	}
	if d.Len() == 0 {
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
		return terminalStep(ctx, q, un[0], d)
	}
	return terminalBase(ctx, q, g, d)
}

// terminalStep handles the induction step for unattacked atom q.Atoms[fi].
func terminalStep(ctx context.Context, q cq.Query, fi int, d *db.DB) (bool, error) {
	F := q.Atoms[fi]
	rest := q.Without(fi)
	for _, block := range candidateBlocks(d, F) {
		// The block's key values must unify with F's key pattern; then by
		// Lemma 8 every fact of the block must unify and leave a certain
		// remainder. (Facts of the block outside F's pattern make the block
		// unusable: a repair choosing such a fact has no F-image with this
		// key.)
		blockOK := true
		for _, A := range block {
			theta, ok := unifyAtomFact(F, A)
			if !ok {
				blockOK = false
				break
			}
			sub, err := CertainTerminal(ctx, rest.Substitute(theta), d)
			if err != nil {
				return false, err
			}
			if !sub {
				blockOK = false
				break
			}
		}
		if blockOK {
			return true, nil
		}
	}
	return false, nil
}

// terminalBase handles the base case: the attack graph is a disjoint union
// of weak terminal 2-cycles and d is purified relative to q.
func terminalBase(ctx context.Context, q cq.Query, g *core.AttackGraph, d *db.DB) (bool, error) {
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
	good := db.New() // ⋃ T db_i U: union of certain partitions

	for i, c := range cycles {
		shared := make(cq.VarSet)
		for j := range cycles {
			if j != i {
				shared.AddAll(cycleVars[i].Intersect(cycleVars[j]))
			}
		}
		sharedSeq := shared.Sorted()
		Fi, Gi := q.Atoms[c.F], q.Atoms[c.G]

		// Partition db_i (the facts of the cycle's relations) by the value
		// vector of the shared variables. Purification guarantees every
		// fact unifies with its atom, and Lemma 7 puts the shared
		// variables inside both keys, so the vector is well defined.
		partitions := make(map[string]*db.DB)
		addFact := func(atom cq.Atom, f db.Fact) error {
			theta, ok := unifyAtomFact(atom, f)
			if !ok {
				return fmt.Errorf("solver: purified fact %s does not match %s", f, atom)
			}
			key := make([]string, len(sharedSeq))
			for k, v := range sharedSeq {
				key[k] = theta[v]
			}
			pk := encodeVector(key)
			p, ok := partitions[pk]
			if !ok {
				p = db.New()
				partitions[pk] = p
			}
			return p.Add(f)
		}
		for _, f := range d.RelationFacts(Fi.Rel) {
			if err := addFact(Fi, f); err != nil {
				return false, err
			}
		}
		for _, f := range d.RelationFacts(Gi.Rel) {
			if err := addFact(Gi, f); err != nil {
				return false, err
			}
		}
		for _, p := range partitions {
			certain, err := certainTwoAtomWeak(Fi, Gi, p)
			if err != nil {
				return false, err
			}
			if !certain {
				continue
			}
			for _, f := range p.Facts() {
				if err := good.Add(f); err != nil {
					return false, err
				}
			}
		}
	}
	// Sublemma 5: db ∈ CERTAINTY(q) ⟺ ⋃ T db_i U ⊨ q.
	return engine.EvalCtx(ctx, q, good)
}
