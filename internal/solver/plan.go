package solver

import (
	"context"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/obs"
)

// Plan is the immutable compiled decision strategy for one query: the
// classification, the method SolveCtx would select, the projection
// simplification (with its reusable database rewriter) when it applies, and
// the method's static artifacts — the compiled recursion of Theorems 1 and 3
// and the safe certain rewriting of Theorem 6. All of this depends on the query
// alone, so it is computed once by CompilePlan and reused across databases
// and goroutines; executing a plan returns byte-identical Verdicts to
// SolveCtx on the same query.
//
// Only the data-dependent work stays at solve time: candidate enumeration
// (which keys on relation cardinalities and the block index) and the
// decision procedures themselves.
type Plan struct {
	// Query is the query the plan was compiled for, exactly as given to
	// CompilePlan.
	Query cq.Query
	// Key is Query's canonical key; the plan cache keys on it, so queries
	// equal up to variable renaming and atom reordering share a plan.
	Key string
	// Class is the paper classification of Query.
	Class core.Class
	// Method is the decision procedure the plan executes — the method of
	// the simplified query when the projection simplification moved the
	// instance into a polynomial class.
	Method Method

	cls        core.Classification
	simplified *Simplification
	execQ      cq.Query            // the query actually dispatched (== Query unless simplified)
	execCls    core.Classification // its classification
	rewriteDB  func(*db.DB) (*db.DB, error)
	prog       *FOProgram   // compiled recursion when Method is MethodFO or MethodTerminal
	safeProg   *fo.Compiled // compiled Theorem 6 rewriting when Method == MethodSafeRewriting
}

// CompilePlan classifies q, resolves the method SolveCtx dispatches to
// (including the projection-simplification attempt on non-polynomial
// classes), and precompiles the method's static artifacts. It is the one
// place a query is classified and its method chosen: every solve entry
// point runs a plan. It fails exactly where SolveCtx would fail before
// touching any database: on unclassifiable queries and on
// rewriting- or program-compilation errors.
func CompilePlan(q cq.Query) (*Plan, error) {
	cls, err := core.Classify(q)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Query:   q,
		Key:     cq.CanonicalKey(q),
		Class:   cls.Class,
		cls:     cls,
		execQ:   q,
		execCls: cls,
	}
	if !cls.Class.InP() {
		if q2, rewrite, rep := simplifyProjection(q); rep != nil {
			if cls2, err2 := core.Classify(q2); err2 == nil && cls2.Class.InP() {
				p.simplified = rep
				p.rewriteDB = rewrite
				p.execQ = q2
				p.execCls = cls2
			}
		}
	}
	p.Method = methodForClass(p.execCls)
	switch p.Method {
	case MethodSafeRewriting:
		phi, err := fo.RewriteSafe(p.execQ)
		if err != nil {
			return nil, err
		}
		if p.safeProg, err = fo.Compile(phi); err != nil {
			return nil, err
		}
	case MethodFO, MethodTerminal:
		if p.prog, err = compileProgram(p.execQ, p.Method == MethodTerminal); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// methodForClass resolves the decision procedure for a classification: the
// Theorem 1 rewriting for acyclic attack graphs, the Theorem 6 rewriting
// for safe queries without a join tree, Theorem 3/4 and Corollary 1 for the
// polynomial cycle classes, exact search for everything else.
func methodForClass(cls core.Classification) Method {
	switch cls.Class {
	case core.ClassFO:
		if cls.Graph == nil {
			return MethodSafeRewriting
		}
		return MethodFO
	case core.ClassPTimeTerminal:
		return MethodTerminal
	case core.ClassPTimeACk:
		return MethodACk
	case core.ClassPTimeCk:
		return MethodCk
	default:
		return MethodFalsifying
	}
}

// Classification returns the full classification of the plan's query.
func (p *Plan) Classification() core.Classification { return p.cls }

// SolveCtx decides db ∈ CERTAINTY(q) for the plan's query with all
// per-query work already done: the same governor wiring, panic
// containment, and graceful degradation on cut-off exponential searches as
// the package-level SolveCtx, which compiles a plan and runs it through the
// same runner. Traced solves record the same span tree minus the classify
// span (classification was paid at compile time), with a plan=compiled
// attribute on the root. With opts.Sharded set, the plan runs
// SolveShardedMemo without a memo.
func (p *Plan) SolveCtx(ctx context.Context, d *db.DB, opts Options) (Verdict, error) {
	if opts.Sharded {
		v, _, err := p.SolveShardedMemo(ctx, d, opts, nil)
		return v, err
	}
	ctx, root := obs.StartSpan(ctx, "solve")
	root.SetAttr("plan", "compiled")
	return p.solveUnder(ctx, root, d, opts)
}
