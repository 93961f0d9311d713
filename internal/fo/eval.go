package fo

import (
	"fmt"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// Eval evaluates a sentence (no free variables) on the database, with
// quantifiers ranging over the active domain of d extended by the constants
// of the formula. All rewritings this package produces are guarded, so
// active-domain semantics coincides with natural semantics. Panics on
// malformed hand-built formulas are converted into errors.
func Eval(f Formula, d *db.DB) (ok bool, err error) {
	defer containPanic(&err)
	if free := FreeVars(f); free.Len() > 0 {
		return false, fmt.Errorf("fo: Eval requires a sentence; free variables %v", free)
	}
	domain := d.ActiveDomain()
	seen := make(map[string]bool, len(domain))
	for _, c := range domain {
		seen[c] = true
	}
	collectConstants(f, func(c string) {
		if !seen[c] {
			seen[c] = true
			domain = append(domain, c)
		}
	})
	return eval(f, d, domain, cq.Valuation{}), nil
}

func collectConstants(f Formula, add func(string)) {
	switch g := f.(type) {
	case Truth:
	case Atom:
		for _, t := range g.A.Args {
			if t.IsConst {
				add(t.Value)
			}
		}
	case Eq:
		for _, t := range []cq.Term{g.L, g.R} {
			if t.IsConst {
				add(t.Value)
			}
		}
	case Not:
		collectConstants(g.F, add)
	case And:
		for _, sub := range g.Fs {
			collectConstants(sub, add)
		}
	case Or:
		for _, sub := range g.Fs {
			collectConstants(sub, add)
		}
	case Implies:
		collectConstants(g.Hyp, add)
		collectConstants(g.Concl, add)
	case Exists:
		collectConstants(g.F, add)
	case Forall:
		collectConstants(g.F, add)
	}
}

func eval(f Formula, d *db.DB, domain []string, env cq.Valuation) bool {
	switch g := f.(type) {
	case Truth:
		return bool(g)
	case Atom:
		ground := g.A.Substitute(env)
		fact, ok := db.FactFromAtom(ground)
		if !ok {
			panic(fmt.Sprintf("fo: unbound variable in atom %s under %v", g.A, env))
		}
		if _, k, ok := d.Signature(fact.Rel); !ok || k != fact.KeyLen {
			return false
		}
		return d.Has(fact)
	case Eq:
		return termValue(g.L, env) == termValue(g.R, env)
	case Not:
		return !eval(g.F, d, domain, env)
	case And:
		for _, sub := range g.Fs {
			if !eval(sub, d, domain, env) {
				return false
			}
		}
		return true
	case Or:
		for _, sub := range g.Fs {
			if eval(sub, d, domain, env) {
				return true
			}
		}
		return false
	case Implies:
		return !eval(g.Hyp, d, domain, env) || eval(g.Concl, d, domain, env)
	case Exists:
		return quantify(g.Vars, 0, env, domain, func(e cq.Valuation) bool {
			return eval(g.F, d, domain, e)
		}, true)
	case Forall:
		return quantify(g.Vars, 0, env, domain, func(e cq.Valuation) bool {
			return eval(g.F, d, domain, e)
		}, false)
	default:
		panic(fmt.Sprintf("fo: unknown formula %T", f))
	}
}

// quantify recursively binds vars[i:] over the domain. existential selects
// ∃ (any witness) vs ∀ (all witnesses).
func quantify(vars []string, i int, env cq.Valuation, domain []string, body func(cq.Valuation) bool, existential bool) bool {
	if i == len(vars) {
		return body(env)
	}
	for _, c := range domain {
		next := env.Bind(vars[i], c)
		ok := quantify(vars, i+1, next, domain, body, existential)
		if existential && ok {
			return true
		}
		if !existential && !ok {
			return false
		}
	}
	return !existential
}

func termValue(t cq.Term, env cq.Valuation) string {
	if t.IsConst {
		return t.Value
	}
	v, ok := env[t.Value]
	if !ok {
		panic(fmt.Sprintf("fo: unbound variable %s", t.Value))
	}
	return v
}
