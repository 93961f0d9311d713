package fo

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/jointree"
)

// markerPrefix makes collision with user constants implausible; correctness
// is additionally guarded by an explicit scan of the query's constants.
const markerPrefix = "⁂fv:" // ⁂fv:<n>

// RewriteAcyclicFree constructs a certain first-order rewriting of a query
// with free variables: a formula φ(x̄) such that for every database db and
// tuple ā, db ∈ CERTAINTY(q[x̄↦ā]) iff db ⊨ φ(ā). It exists iff the attack
// graph of q[x̄↦ā] is acyclic; since substituting constants never adds
// attacks (Lemma 5), it suffices that q with the free variables frozen to
// fresh constants has an acyclic attack graph.
//
// The construction freezes each free variable to a marker constant, runs
// the Boolean rewriting, and reopens the markers as free variables.
func RewriteAcyclicFree(q cq.Query, free []string) (Formula, error) {
	vars := q.Vars()
	markers := make(cq.Valuation, len(free))
	reopen := make(map[string]string, len(free))
	seen := make(map[string]bool, len(free))
	for i, x := range free {
		if !vars.Has(x) {
			return nil, fmt.Errorf("fo: free variable %s does not occur in %s", x, q)
		}
		if seen[x] {
			return nil, fmt.Errorf("fo: duplicate free variable %s", x)
		}
		seen[x] = true
		if isGeneratedName(x) {
			// The rewriting introduces quantified variables named w<n>;
			// reopening a marker to such a name under one of those binders
			// would capture it.
			return nil, fmt.Errorf("fo: free variable %s collides with generated quantifier names; rename it", x)
		}
		m := markerPrefix + strconv.Itoa(i)
		markers[x] = m
		reopen[m] = x
	}
	for c := range q.Constants() {
		if strings.HasPrefix(c, markerPrefix) {
			return nil, fmt.Errorf("fo: query constant %q collides with the marker namespace", c)
		}
	}
	phi, err := RewriteAcyclic(q.Substitute(markers))
	if err != nil {
		return nil, err
	}
	return reopenMarkers(phi, reopen), nil
}

// isGeneratedName reports whether a name matches the w<n> pattern used by
// RewriteAcyclic for quantified variables.
func isGeneratedName(x string) bool {
	if len(x) < 2 || x[0] != 'w' {
		return false
	}
	for i := 1; i < len(x); i++ {
		if x[i] < '0' || x[i] > '9' {
			return false
		}
	}
	return true
}

// reopenMarkers replaces marker constants with their free variables.
func reopenMarkers(f Formula, reopen map[string]string) Formula {
	term := func(t cq.Term) cq.Term {
		if t.IsConst {
			if x, ok := reopen[t.Value]; ok {
				return cq.Var(x)
			}
		}
		return t
	}
	switch g := f.(type) {
	case Truth:
		return g
	case Atom:
		args := make([]cq.Term, len(g.A.Args))
		for i, t := range g.A.Args {
			args[i] = term(t)
		}
		return Atom{A: cq.Atom{Rel: g.A.Rel, KeyLen: g.A.KeyLen, Args: args}}
	case Eq:
		return Eq{L: term(g.L), R: term(g.R)}
	case Not:
		return Not{F: reopenMarkers(g.F, reopen)}
	case And:
		fs := make([]Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = reopenMarkers(sub, reopen)
		}
		return And{Fs: fs}
	case Or:
		fs := make([]Formula, len(g.Fs))
		for i, sub := range g.Fs {
			fs[i] = reopenMarkers(sub, reopen)
		}
		return Or{Fs: fs}
	case Implies:
		return Implies{Hyp: reopenMarkers(g.Hyp, reopen), Concl: reopenMarkers(g.Concl, reopen)}
	case Exists:
		return Exists{Vars: g.Vars, F: reopenMarkers(g.F, reopen)}
	case Forall:
		return Forall{Vars: g.Vars, F: reopenMarkers(g.F, reopen)}
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

// EvalWith evaluates a formula whose free variables are bound by env;
// every free variable must be bound. Panics on malformed hand-built
// formulas are converted into errors.
func EvalWith(f Formula, d *db.DB, env cq.Valuation) (ok bool, err error) {
	defer containPanic(&err)
	for x := range FreeVars(f) {
		if _, ok := env[x]; !ok {
			return false, fmt.Errorf("fo: unbound free variable %s", x)
		}
	}
	domain := d.ActiveDomain()
	seen := make(map[string]bool, len(domain))
	for _, c := range domain {
		seen[c] = true
	}
	add := func(c string) {
		if !seen[c] {
			seen[c] = true
			domain = append(domain, c)
		}
	}
	collectConstants(f, add)
	for _, v := range env {
		add(v)
	}
	return eval(f, d, domain, env.Clone()), nil
}

// frozenClassifiable reports whether the frozen query has an acyclic attack
// graph (exported for the answers fast path).
func frozenClassifiable(q cq.Query, free []string) bool {
	markers := make(cq.Valuation, len(free))
	for i, x := range free {
		markers[x] = markerPrefix + strconv.Itoa(i)
	}
	g, err := core.BuildAttackGraph(q.Substitute(markers), jointree.TieBreakLex)
	return err == nil && g.IsAcyclic()
}

// CanRewriteFree reports whether RewriteAcyclicFree will succeed for q and
// the given free variables.
func CanRewriteFree(q cq.Query, free []string) bool {
	return frozenClassifiable(q, free)
}
