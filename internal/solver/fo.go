package solver

import (
	"context"
	"fmt"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/jointree"
)

// unifyAtomFact unifies (possibly partially ground) atom a with fact f and
// returns the valuation over vars(a) induced by f.
func unifyAtomFact(a cq.Atom, f db.Fact) (cq.Valuation, bool) {
	if a.Rel != f.Rel || len(a.Args) != len(f.Args) || a.KeyLen != f.KeyLen {
		return nil, false
	}
	v := make(cq.Valuation)
	for i, t := range a.Args {
		if t.IsConst {
			if t.Value != f.Args[i] {
				return nil, false
			}
			continue
		}
		if prev, ok := v[t.Value]; ok {
			if prev != f.Args[i] {
				return nil, false
			}
			continue
		}
		v[t.Value] = f.Args[i]
	}
	return v, true
}

// shapePlaceholder stands in for every constant when only the query's shape
// matters: the attack graph depends on the positions of variables, not on
// which constants fill the ground positions.
const shapePlaceholder = "▢"

// FOProgram is the compiled static shape of the Theorem 1 rewriting: the
// sequence of unattacked-atom choices the recursion makes, computed once
// per query. At recursion depth L the residual query always has the same
// shape — the same atoms minus the first L eliminated ones, with exactly
// the variables of the eliminated atoms grounded — so the unattacked-atom
// choice at each depth is a function of the original query alone. Compiling
// it eagerly removes the per-call shape-key rendering and attack-graph
// memoization from the hot recursion entirely.
//
// A program is immutable and safe for concurrent use; compile once per
// canonical query (the plan cache does) and reuse across databases.
//
// The schedule (see fo_interned.go) lowers each level's arguments to
// constant-ordinal / bound-slot / bind-slot operations against the
// database's interned columnar view, so the hot recursion runs over uint32
// ids with zero allocations.
type FOProgram struct {
	sched     []foStep   // one entry per level, in elimination order
	constRefs []constRef // constant ordinal → (atom, pos) in the runtime query
	nslots    int        // variable slots of the interned environment
	maxKey    int        // widest key probed by any keyReady level
}

// CompileFO builds the FO rewriting program for q. It fails exactly where
// CertainFO would: on queries whose attack graph is cyclic (or whose
// residuals ever lose all unattacked atoms, which Lemma 5 rules out for
// acyclic attack graphs).
func CompileFO(q cq.Query) (*FOProgram, error) {
	// Mask constants so the simulation works on the pure shape.
	cur := maskShape(q)
	p := &FOProgram{sched: make([]foStep, 0, q.Len())}
	// orig maps residual indices back to original atom indices; slots
	// accumulates the variables grounded by eliminated atoms, which is
	// exactly the statically-known bound set at each level.
	orig := make([]int, q.Len())
	for i := range orig {
		orig[i] = i
	}
	slots := make(map[string]uint16)
	for !cur.IsEmpty() {
		g, err := core.BuildAttackGraph(cur, jointree.TieBreakLex)
		if err != nil {
			return nil, err
		}
		un := g.Unattacked()
		if len(un) == 0 {
			return nil, fmt.Errorf("solver: CertainFO requires an acyclic attack graph: %s", cur)
		}
		idx := un[0]
		F := cur.Atoms[idx]
		theta := make(cq.Valuation)
		for _, t := range F.Args {
			if t.IsVar() {
				theta[t.Value] = shapePlaceholder
			}
		}
		p.compileStep(q, orig[idx], slots)
		orig = append(orig[:idx], orig[idx+1:]...)
		cur = cur.Without(idx).Substitute(theta)
	}
	return p, nil
}

// maskShape replaces every constant of q with the shape placeholder.
func maskShape(q cq.Query) cq.Query {
	masked := make([]cq.Atom, q.Len())
	for i, a := range q.Atoms {
		args := make([]cq.Term, len(a.Args))
		for j, t := range a.Args {
			if t.IsConst {
				args[j] = cq.Const(shapePlaceholder)
			} else {
				args[j] = t
			}
		}
		masked[i] = cq.Atom{Rel: a.Rel, KeyLen: a.KeyLen, Args: args}
	}
	return cq.Query{Atoms: masked}
}

// Certain decides db ∈ CERTAINTY(q) for the query the program was compiled
// for (or any query with the same shape).
func (p *FOProgram) Certain(q cq.Query, d *db.DB) (bool, error) {
	return p.CertainCtx(context.Background(), q, d)
}

// CertainCtx is Certain with cooperative cancellation: one governor step is
// charged per recursive rewriting step, exactly as in CertainFOCtx.
func (p *FOProgram) CertainCtx(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	if q.Len() != len(p.sched) {
		return false, fmt.Errorf("solver: FO program compiled for %d atoms applied to %d-atom query", len(p.sched), q.Len())
	}
	return p.certainInterned(govern.From(ctx), q, d)
}

// CertainFO decides db ∈ CERTAINTY(q) for queries whose attack graph is
// acyclic, by executing the certain first-order rewriting of Theorem 1
// directly against the database: pick an unattacked atom F of relation R;
// the query is certain iff some R-block exists in which every fact unifies
// with F and makes the instantiated remainder certain. Substituting
// constants and removing F preserve acyclicity of the attack graph
// (Lemma 5), so the recursion always finds an unattacked atom.
//
// The unattacked-atom choices depend only on the query's shape, so they are
// compiled once into an FOProgram and the recursion itself does no graph
// work; candidate blocks come from the database's memoized per-relation
// block index. Callers solving the same query repeatedly should compile
// (or use the plan cache) once and reuse the program.
//
// The returned error reports queries outside the method's scope (cyclic
// attack graph, self-join, cyclic query).
func CertainFO(q cq.Query, d *db.DB) (bool, error) {
	return CertainFOCtx(context.Background(), q, d)
}

// CertainFOCtx is CertainFO with cooperative cancellation: one governor
// step is charged per recursive rewriting step. The first step is charged
// before compilation so that cancellation surfaces ahead of scope errors.
func CertainFOCtx(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	g := govern.From(ctx)
	if err := g.Step(); err != nil {
		return false, err
	}
	p, err := CompileFO(q)
	if err != nil {
		return false, err
	}
	return p.steppedInterned(g, q, d)
}

// candidateBlocks returns the blocks of a's relation that can possibly
// match a, from the database's memoized index. When a's primary key is
// ground (the common case in recursive calls, where the parent atom's
// valuation instantiated the key), the block index narrows the search to a
// single block. The returned blocks are shared slices; callers must not
// modify them.
func candidateBlocks(d *db.DB, a cq.Atom) [][]db.Fact {
	key := make([]string, a.KeyLen)
	for i := 0; i < a.KeyLen; i++ {
		if a.Args[i].IsVar() {
			return d.BlocksOf(a.Rel)
		}
		key[i] = a.Args[i].Value
	}
	block := d.BlockView(db.Fact{Rel: a.Rel, KeyLen: a.KeyLen, Args: key})
	if len(block) == 0 {
		return nil
	}
	return [][]db.Fact{block}
}
