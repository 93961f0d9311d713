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
)

// CertainTerminal decides db ∈ CERTAINTY(q) in polynomial time for acyclic
// self-join-free queries all of whose attack cycles are weak and terminal,
// implementing the proof of Theorem 3:
//
//   - Induction step: while an unattacked atom F exists, the query is
//     certain iff for some block of F's relation (Corollary 8.11 of
//     [Wijsen, TODS 2012]) every fact of that block unifies with F and
//     makes the instantiated remainder certain (Lemma 8). Lemma 5
//     guarantees the remainder's attack cycles stay weak and terminal.
//   - Base case: every atom lies on a weak terminal 2-cycle; by Lemma 6
//     the attack graph is a disjoint union of 2-cycles {Fi, Gi}. The facts
//     of each cycle's relations are partitioned by the values of the
//     variables shared with other cycles (contained in both keys by
//     Lemma 7); each partition is decided with the two-atom weak-cycle
//     solver, and by Sublemma 5 the query is certain iff the union of the
//     certain partitions satisfies q.
//
// The induction is Theorem 1's recursion, run as a compiled FOProgram whose
// leaves decide the compiled base case over block sets of d's interned
// view, so queries outside the method's scope are refused before any data
// is read. The governor attached to ctx bounds the induction steps as well
// as each leaf's purification and evaluation.
func CertainTerminal(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	return certainCompiled(ctx, q, d, true)
}

// termBase is Theorem 3's compiled base case: the residual atoms the
// recursion leaves, with the slots a leaf rebuilds them from, and their
// weak terminal 2-cycles.
type termBase struct {
	atoms  []int   // original atom index of each residual atom
	slots  [][]int // per residual atom and argument: the slot binding it, or -1
	cycles []termCycle
}

// termCycle is one 2-cycle {F, G} of the base case (residual atom indices)
// with, per side, the key positions of the variables the cycle shares with
// other cycles, in one variable order.
type termCycle struct {
	atoms [2]int
	keys  [2][]int
}

// compileBase compiles the base case from the masked residual cur (whose
// atom i is q's atom orig[i]), its attack graph g, and the slots of the
// variables the recursion grounded.
func compileBase(q, cur cq.Query, g *core.AttackGraph, orig []int, slots map[string]uint16) (*termBase, error) {
	// Every atom must lie on a cycle; terminal 2-cycles are disjoint.
	cycles := g.TerminalWeakCycles()
	if 2*len(cycles) != cur.Len() {
		return nil, fmt.Errorf("solver: base case expects every atom on a 2-cycle: %s", q)
	}
	b := &termBase{atoms: orig, slots: make([][]int, len(orig))}
	for i, ai := range orig {
		b.slots[i] = make([]int, len(q.Atoms[ai].Args))
		for j, t := range q.Atoms[ai].Args {
			b.slots[i][j] = -1
			if s, ok := slots[t.Value]; ok && t.IsVar() {
				b.slots[i][j] = int(s)
			}
		}
	}
	for _, c := range cycles {
		// Shared variables x̄_i: variables of cycle i occurring in other
		// cycles. Grounded variables are constants of the masked residual.
		vars := cur.Atoms[c.F].Vars().Union(cur.Atoms[c.G].Vars())
		shared := make(cq.VarSet)
		for ai, a := range cur.Atoms {
			if ai != c.F && ai != c.G {
				shared.AddAll(vars.Intersect(a.Vars()))
			}
		}
		tc := termCycle{atoms: [2]int{c.F, c.G}}
		for side, ai := range tc.atoms {
			pos, err := keyPositions(cur.Atoms[ai], shared.Sorted())
			if err != nil {
				return nil, err
			}
			tc.keys[side] = pos
		}
		b.cycles = append(b.cycles, tc)
	}
	return b, nil
}

// certain decides the base case at a leaf of the recursion, where env holds
// the ids the ancestors bound: it rebuilds the residual, purifies d for it
// (Lemma 1), partitions each cycle's blocks by the shared-variable values
// read off their keys, and evaluates the residual on the union of the
// partitions the two-atom solver finds certain (Sublemma 5).
func (b *termBase) certain(ctx context.Context, q cq.Query, d *db.DB, env []uint32) (bool, error) {
	in := d.Interned()
	res := cq.Query{Atoms: make([]cq.Atom, len(b.atoms))}
	for i, ai := range b.atoms {
		a := q.Atoms[ai]
		args := slices.Clone(a.Args)
		for j, s := range b.slots[i] {
			if s >= 0 {
				args[j] = cq.Const(in.Syms.MustString(env[s]))
			}
		}
		res.Atoms[i] = cq.Atom{Rel: a.Rel, KeyLen: a.KeyLen, Args: args}
	}
	s, err := engine.AllBlocks(d).Purify(ctx, res)
	if err != nil || s.Empty() {
		return false, err
	}
	good := engine.NewBlockSet(in) // ⋃ T db_i U: union of certain partitions
	var buf []byte
	for _, c := range b.cycles {
		atoms := [2]cq.Atom{res.Atoms[c.atoms[0]], res.Atoms[c.atoms[1]]}
		rels := [2]*db.IRel{relOf(in, atoms[0]), relOf(in, atoms[1])}
		// Partition db_i (the cycle's blocks) by the value vector of the
		// shared variables; every partition is a block set.
		partitions := make(map[string]*[2][]uint32)
		for side, r := range rels {
			for blk := 0; r != nil && blk < r.NumBlocks(); blk++ {
				if !s.Has(r, uint32(blk)) {
					continue
				}
				first := r.BlockSpan(blk)[0]
				buf = buf[:0]
				for _, p := range c.keys[side] {
					buf = binary.LittleEndian.AppendUint32(buf, r.Cols[p][first])
				}
				part := partitions[string(buf)]
				if part == nil {
					part = new([2][]uint32)
					partitions[string(buf)] = part
				}
				part[side] = append(part[side], uint32(blk))
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
				for _, blk := range part[side] {
					good.Add(r, blk)
				}
			}
		}
	}
	// Sublemma 5: db ∈ CERTAINTY(q) ⟺ ⋃ T db_i U ⊨ q.
	return good.Eval(ctx, res)
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
