package fo

import (
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
)

// TestInternedCompiledParity is the differential for the fo data plane: the
// compiled interned tree and the interpreter must decide every rewriting
// identically over random databases.
func TestInternedCompiledParity(t *testing.T) {
	queries := []cq.Query{
		cq.MustParseQuery("R(x | y)"),
		cq.MustParseQuery("R(x | y), S(y | z)"),
		cq.MustParseQuery("R(x | y, z), S(y, z | w)"),
		cq.MustParseQuery("R(x, x | y)"),
		cq.MustParseQuery("R(x | 'A'), S(x | y)"), // constant probes
	}
	for _, q := range queries {
		phi, err := RewriteAcyclic(q)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := Compile(phi)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 25; seed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 3, Noise: 4, Domain: 3}, seed)
			interp, err := Eval(phi, d)
			if err != nil {
				t.Fatal(err)
			}
			interned, err := compiled.Eval(d)
			if err != nil {
				t.Fatal(err)
			}
			if interned != interp {
				t.Fatalf("%s seed %d: interned=%v interpreted=%v\nφ = %s\ndb:\n%s",
					q, seed, interned, interp, phi, d)
			}
		}
	}
}

// TestInternedCompiledEdgeCases pins the symbol-resolution corners:
// constants absent from the database (pseudo-ids), constants colliding with
// relation names (interned but outside the active domain), and empty
// databases.
func TestInternedCompiledEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		phi  Formula
		d    *db.DB
	}{
		{
			name: "constant absent from db",
			phi: NewAnd(
				Exists{Vars: []string{"w"}, F: Atom{A: cq.MustParseQuery("R('missing' | w)").Atoms[0]}},
				Not{F: Eq{L: cq.Const("missing"), R: cq.Const("alsogone")}},
			),
			d: db.MustParse("R(a | b)"),
		},
		{
			name: "constant equals relation name",
			phi:  Exists{Vars: []string{"x"}, F: Eq{L: cq.Var("x"), R: cq.Const("R")}},
			d:    db.MustParse("R(a | b)"),
		},
		{
			name: "empty database",
			phi:  Forall{Vars: []string{"x"}, F: Eq{L: cq.Var("x"), R: cq.Var("x")}},
			d:    db.New(),
		},
		{
			name: "two absent constants stay distinct",
			phi:  Eq{L: cq.Const("ghost1"), R: cq.Const("ghost2")},
			d:    db.MustParse("R(a | b)"),
		},
		{
			name: "same absent constant is self-equal",
			phi:  Eq{L: cq.Const("ghost"), R: cq.Const("ghost")},
			d:    db.MustParse("R(a | b)"),
		},
		{
			name: "arity mismatch probes false",
			phi:  Atom{A: cq.MustParseQuery("R('a', 'b' | 'c')").Atoms[0]},
			d:    db.MustParse("R(a | b)"),
		},
	}
	for _, tc := range cases {
		compiled, err := Compile(tc.phi)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		interp, err := Eval(tc.phi, tc.d)
		if err != nil {
			t.Fatalf("%s: interpreter: %v", tc.name, err)
		}
		interned, err := compiled.Eval(tc.d)
		if err != nil {
			t.Fatalf("%s: interned: %v", tc.name, err)
		}
		if interned != interp {
			t.Fatalf("%s: interned=%v interpreted=%v", tc.name, interned, interp)
		}
	}
}

// TestKeyLengthMismatchProbesFalse: a relation stored with another key
// length than the atom's matches no fact in either evaluator, as in the
// query engine, so a rewriting never reads a relation the query cannot
// embed into.
func TestKeyLengthMismatchProbesFalse(t *testing.T) {
	phi := Atom{A: cq.MustParseQuery("R('a' | 'b', 'c')").Atoms[0]}
	d := db.MustParse("R(a, b, c)")
	compiled, err := Compile(phi)
	if err != nil {
		t.Fatal(err)
	}
	interned, err := compiled.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	interp, err := Eval(phi, d)
	if err != nil {
		t.Fatal(err)
	}
	if interned || interp {
		t.Fatalf("interned=%v interpreted=%v, want both false", interned, interp)
	}
}

// TestCompiledEvalWithMatchesInterpreter: Compiled.EvalWith resolves bound
// values on the interned plane — ids for values in the database, the
// constants' ids for values the formula names, pseudo-ids for values absent
// from both (shared by free variables bound to the same absent value) — and
// adds them to the quantification domain. Every binding must decide exactly
// what the interpreter's EvalWith decides, including on formulas whose truth
// depends on the domain.
func TestCompiledEvalWithMatchesInterpreter(t *testing.T) {
	chain := cq.MustParseQuery("R(x | y), S(y | z)")
	rewriting := func(q cq.Query, free ...string) Formula {
		phi, err := RewriteAcyclicFree(q, free)
		if err != nil {
			t.Fatal(err)
		}
		return phi
	}
	x, y, w := cq.Var("x"), cq.Var("y"), cq.Var("w")
	rAtom := func(k, v cq.Term) Formula {
		return Atom{A: cq.Atom{Rel: "R", KeyLen: 1, Args: []cq.Term{k, v}}}
	}
	formulas := []Formula{
		rewriting(chain, "x"),
		rewriting(chain, "x", "z"),
		rewriting(cq.MustParseQuery("R(x | 'k')"), "x"),
		// Equality of two free variables, and against a constant.
		NewOr(Eq{L: x, R: y}, Eq{L: x, R: cq.Const("k")}),
		// Unguarded quantifiers: truth depends on which values the domain
		// holds, bound values and constants included.
		Forall{Vars: []string{"w"}, F: NewOr(Eq{L: w, R: x}, Eq{L: w, R: y}, Exists{Vars: []string{"v"}, F: rAtom(w, cq.Var("v"))})},
		Exists{Vars: []string{"w"}, F: NewAnd(Not{F: Eq{L: w, R: x}}, Not{F: rAtom(w, y)})},
		NewAnd(rAtom(x, y), Not{F: Eq{L: y, R: cq.Const("ghost")}}),
	}
	dbs := []*db.DB{db.New(), db.MustParse("R(a | b), R(a | k), S(b | c)")}
	for seed := int64(0); seed < 3; seed++ {
		dbs = append(dbs, gen.RandomDB(chain, gen.Config{Embeddings: 2, Noise: 2, Domain: 3}, seed))
	}
	checked := 0
	for fi, phi := range formulas {
		compiled, err := Compile(phi)
		if err != nil {
			t.Fatalf("formula %d: %v", fi, err)
		}
		free := FreeVars(phi).Sorted()
		for di, d := range dbs {
			// Values from the database, from the formula's constants, and
			// absent from both.
			values := append(d.ActiveDomain(), "k", "ghost", "ghost2")
			var rec func(i int, env cq.Valuation)
			rec = func(i int, env cq.Valuation) {
				if i == len(free) {
					want, err := EvalWith(phi, d, env)
					if err != nil {
						t.Fatalf("formula %d db %d %v: interpreter: %v", fi, di, env, err)
					}
					got, err := compiled.EvalWith(d, env)
					if err != nil {
						t.Fatalf("formula %d db %d %v: compiled: %v", fi, di, env, err)
					}
					if got != want {
						t.Fatalf("formula %d db %d binding %v: compiled=%v interpreted=%v\nφ = %s\ndb:\n%s",
							fi, di, env, got, want, phi, d)
					}
					checked++
					return
				}
				for _, v := range values {
					env[free[i]] = v
					rec(i+1, env)
				}
				delete(env, free[i])
			}
			rec(0, cq.Valuation{})
		}
	}
	if checked == 0 {
		t.Fatal("no bindings checked")
	}
	t.Logf("%d bindings agree", checked)
	// Two free variables sharing one absent value must compare equal.
	c, err := Compile(Eq{L: x, R: y})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := c.EvalWith(db.MustParse("R(a | b)"), cq.Valuation{"x": "ghost", "y": "ghost"}); err != nil || !ok {
		t.Fatalf("x = y over a shared absent value: %v, %v", ok, err)
	}
	if ok, err := c.EvalWith(db.MustParse("R(a | b)"), cq.Valuation{"x": "ghost", "y": "ghost2"}); err != nil || ok {
		t.Fatalf("x = y over distinct absent values: %v, %v", ok, err)
	}
	if _, err := c.EvalWith(db.New(), cq.Valuation{"x": "a"}); err == nil {
		t.Fatal("EvalWith with an unbound free variable must fail")
	}
}
