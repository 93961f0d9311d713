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

// shapePlaceholder stands in for every constant when only the query's shape
// matters: the attack graph depends on the positions of variables, not on
// which constants fill the ground positions.
const shapePlaceholder = "▢"

// FOProgram is the compiled static shape of the recursion of Theorem 1's
// rewriting and Theorem 3's Lemma 8: the sequence of unattacked-atom
// choices the recursion makes, computed once per query. At recursion depth
// L the residual query always has the same shape — the same atoms minus the
// first L eliminated ones, with exactly the variables of the eliminated
// atoms grounded — so the unattacked-atom choice at each depth is a
// function of the original query alone. Compiling it eagerly removes the
// per-call shape-key rendering and attack-graph memoization from the hot
// recursion entirely. A Theorem 3 program also carries the base case its
// leaves decide (see termBase).
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
	natoms    int        // atoms of the compiled query
	base      *termBase  // Theorem 3's base case; nil for Theorem 1
}

// CompileFO builds the FO rewriting program for q. It fails exactly where
// CertainFO would: on queries whose attack graph is cyclic (or whose
// residuals ever lose all unattacked atoms, which Lemma 5 rules out for
// acyclic attack graphs).
func CompileFO(q cq.Query) (*FOProgram, error) { return compileProgram(q, false) }

// compileProgram walks the unattacked atoms of q's constant-masked shape.
// With terminal set, the residual left when no atom is unattacked becomes
// the compiled base case of Theorem 3 instead of an error, and every
// residual must have only weak terminal attack cycles (Lemma 5 keeps them
// so once q has).
func compileProgram(q cq.Query, terminal bool) (*FOProgram, error) {
	// Mask constants so the simulation works on the pure shape.
	cur := maskShape(q)
	p := &FOProgram{sched: make([]foStep, 0, q.Len()), natoms: q.Len()}
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
		if terminal && !g.AllCyclesWeakAndTerminal() {
			return nil, fmt.Errorf("solver: CertainTerminal requires all attack cycles weak and terminal: %s", q)
		}
		un := g.Unattacked()
		if len(un) == 0 {
			if !terminal {
				return nil, fmt.Errorf("solver: CertainFO requires an acyclic attack graph: %s", cur)
			}
			if p.base, err = compileBase(q, cur, g, orig, slots); err != nil {
				return nil, err
			}
			return p, nil
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
// for (or any query with the same shape). One governor step is charged per
// recursive rewriting step, exactly as in CertainFO, plus a Theorem 3
// leaf's purification and evaluation steps.
func (p *FOProgram) Certain(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	if q.Len() != p.natoms {
		return false, fmt.Errorf("solver: FO program compiled for %d atoms applied to %d-atom query", p.natoms, q.Len())
	}
	// Charge the entry step: cancellation surfaces before any database work.
	g := govern.From(ctx)
	if err := g.Step(); err != nil {
		return false, err
	}
	return p.steppedInterned(ctx, g, q, d)
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
// work; candidate blocks come from the database's interned view. Callers
// solving the same query repeatedly should compile (or use the plan cache)
// once and reuse the program.
//
// The returned error reports queries outside the method's scope (cyclic
// attack graph, self-join, cyclic query), or the governor's error when the
// governor attached to ctx trips: one step is charged per recursive
// rewriting step, the first before compilation so that cancellation
// surfaces ahead of scope errors.
func CertainFO(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	return certainCompiled(ctx, q, d, false)
}

// certainCompiled is the one body of CertainFO and CertainTerminal: charge
// the entry step, compile the program, and run it.
func certainCompiled(ctx context.Context, q cq.Query, d *db.DB, terminal bool) (bool, error) {
	g := govern.From(ctx)
	if err := g.Step(); err != nil {
		return false, err
	}
	p, err := compileProgram(q, terminal)
	if err != nil {
		return false, err
	}
	return p.steppedInterned(ctx, g, q, d)
}
