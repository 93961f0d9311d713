package fo

import (
	"errors"
	"strings"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
)

func TestConstructorsSimplify(t *testing.T) {
	if NewAnd() != Truth(true) {
		t.Error("empty conjunction is true")
	}
	if NewOr() != Truth(false) {
		t.Error("empty disjunction is false")
	}
	if NewAnd(Truth(true), Truth(false)) != Truth(false) {
		t.Error("false absorbs conjunction")
	}
	if NewOr(Truth(false), Truth(true)) != Truth(true) {
		t.Error("true absorbs disjunction")
	}
	a := Eq{L: cq.Var("x"), R: cq.Const("c")}
	if got := NewAnd(a); got.String() != a.String() {
		t.Error("singleton conjunction unwraps")
	}
	nested := NewAnd(a, NewAnd(a, a))
	if and, ok := nested.(And); !ok || len(and.Fs) != 3 {
		t.Errorf("conjunction flattening: %v", nested)
	}
	if NewExists(nil, a).String() != a.String() {
		t.Error("empty quantifier prefix drops")
	}
}

func TestFreeVarsAndRename(t *testing.T) {
	f := Exists{
		Vars: []string{"x"},
		F: NewAnd(
			Atom{A: cq.NewAtom("R", 1, cq.Var("x"), cq.Var("y"))},
			Eq{L: cq.Var("z"), R: cq.Const("c")},
		),
	}
	if got := FreeVars(f); !got.Equal(cq.NewVarSet("y", "z")) {
		t.Errorf("FreeVars = %v", got)
	}
	r := Rename(f, map[string]cq.Term{"y": cq.Const("k"), "x": cq.Const("nope")})
	if got := FreeVars(r); !got.Equal(cq.NewVarSet("z")) {
		t.Errorf("rename should respect binders: %v, %s", got, r)
	}
}

func TestEvalBasics(t *testing.T) {
	d := db.MustParse("R(a | b), R(a | c), S(b | a)")
	cases := []struct {
		f    Formula
		want bool
	}{
		{Truth(true), true},
		{Truth(false), false},
		{Atom{A: cq.NewAtom("R", 1, cq.Const("a"), cq.Const("b"))}, true},
		{Atom{A: cq.NewAtom("R", 1, cq.Const("a"), cq.Const("z"))}, false},
		{Not{F: Truth(false)}, true},
		{Exists{Vars: []string{"x"}, F: Atom{A: cq.NewAtom("S", 1, cq.Var("x"), cq.Const("a"))}}, true},
		{Forall{Vars: []string{"x"}, F: Atom{A: cq.NewAtom("R", 1, cq.Const("a"), cq.Var("x"))}}, false},
		{Exists{Vars: []string{"x", "y"}, F: NewAnd(
			Atom{A: cq.NewAtom("R", 1, cq.Var("x"), cq.Var("y"))},
			Atom{A: cq.NewAtom("S", 1, cq.Var("y"), cq.Var("x"))},
		)}, true},
		{Implies{Hyp: Truth(true), Concl: Truth(false)}, false},
		{Eq{L: cq.Const("a"), R: cq.Const("a")}, true},
	}
	for _, c := range cases {
		got, err := Eval(c.f, d)
		if err != nil {
			t.Fatalf("%s: %v", c.f, err)
		}
		if got != c.want {
			t.Errorf("Eval(%s) = %v, want %v", c.f, got, c.want)
		}
	}
	if _, err := Eval(Eq{L: cq.Var("x"), R: cq.Const("a")}, d); err == nil {
		t.Error("free variable must be rejected")
	}
}

func TestEvalConstantOutsideDomain(t *testing.T) {
	// A constant mentioned only in the formula still participates in
	// quantification.
	d := db.MustParse("R(a | b)")
	f := Exists{Vars: []string{"x"}, F: Eq{L: cq.Var("x"), R: cq.Const("zzz")}}
	got, err := Eval(f, d)
	if err != nil || !got {
		t.Errorf("formula constants must be quantifiable: %v %v", got, err)
	}
}

// TestRewriteAcyclicAgainstSolver is the key equivalence: evaluating the
// rewriting equals running the certain-answer procedure.
func TestRewriteAcyclicAgainstSolver(t *testing.T) {
	queries := []cq.Query{
		cq.MustParseQuery("R(x | y)"),
		cq.MustParseQuery("R(x | y), S(y | z)"),
		cq.ConferenceQuery(),
		cq.MustParseQuery("R(x | y, z), S(y, z | w)"),
		cq.MustParseQuery("R(x | x)"),    // repeated variable
		cq.MustParseQuery("R(x, x | y)"), // repeated key variable
		cq.MustParseQuery("R(x | 'c'), S(x | y)"),
	}
	for _, q := range queries {
		phi, err := RewriteAcyclic(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if FreeVars(phi).Len() != 0 {
			t.Fatalf("%s: rewriting has free variables: %s", q, phi)
		}
		for seed := int64(0); seed < 25; seed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 3, Noise: 3, Domain: 3}, seed)
			want := bruteCertain(q, d)
			got, err := Eval(phi, d)
			if err != nil {
				t.Fatalf("%s seed %d: %v", q, seed, err)
			}
			if got != want {
				t.Errorf("%s seed %d: rewriting=%v brute=%v\nφ = %s\ndb:\n%s",
					q, seed, got, want, phi, d)
			}
		}
	}
}

func TestRewriteAcyclicRejectsCyclicAttackGraph(t *testing.T) {
	if _, err := RewriteAcyclic(cq.Q1()); err == nil {
		t.Error("q1 has no certain FO rewriting (Theorem 1)")
	}
	if _, err := RewriteAcyclic(cq.Ck(2)); err == nil {
		t.Error("C(2) has no certain FO rewriting")
	}
}

func TestRewriteFact(t *testing.T) {
	a := cq.NewAtom("R", 1, cq.Const("a"), cq.Const("b"))
	phi, err := RewriteFact(a)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		db   string
		want bool
	}{
		{"R(a | b)", true},
		{"R(a | b), R(a | c)", false}, // block not a singleton
		{"R(a | c)", false},
		{"", false},
		{"R(a | b), R(x | y)", true}, // other blocks are irrelevant
	}
	for _, c := range cases {
		d := db.MustParse(c.db)
		got, err := Eval(phi, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%q: %v, want %v", c.db, got, c.want)
		}
		q := cq.Query{Atoms: []cq.Atom{a}}
		if want := bruteCertain(q, d); got != want {
			t.Errorf("%q: disagrees with brute force", c.db)
		}
	}
	if _, err := RewriteFact(cq.NewAtom("R", 1, cq.Var("x"))); err == nil {
		t.Error("non-ground atom must be rejected")
	}
}

func TestStringRendering(t *testing.T) {
	f := Exists{Vars: []string{"x"}, F: Implies{
		Hyp:   Atom{A: cq.NewAtom("R", 1, cq.Var("x"))},
		Concl: Not{F: Truth(false)},
	}}
	s := f.String()
	for _, want := range []string{"∃x", "→", "¬⊥", "R(x)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

func TestSizeAndQuantifierRank(t *testing.T) {
	phi, err := RewriteAcyclic(cq.MustParseQuery("R(x | y), S(y | z)"))
	if err != nil {
		t.Fatal(err)
	}
	if Size(phi) < 10 {
		t.Errorf("Size = %d, suspiciously small", Size(phi))
	}
	// ∃w1 (... ∀w2 (... ∃w3 (... ∀w4 ...))) — rank 4.
	if got := QuantifierRank(phi); got != 4 {
		t.Errorf("QuantifierRank = %d, want 4", got)
	}
	if Size(Truth(true)) != 1 || QuantifierRank(Truth(true)) != 0 {
		t.Error("leaf metrics")
	}
	nested := Not{F: Implies{Hyp: Truth(true), Concl: Exists{Vars: []string{"x"}, F: Truth(false)}}}
	if Size(nested) != 5 || QuantifierRank(nested) != 1 {
		t.Errorf("nested metrics: size=%d rank=%d", Size(nested), QuantifierRank(nested))
	}
}

func TestRewriteSentinelErrors(t *testing.T) {
	if _, err := RewriteAcyclic(cq.Q1()); !errors.Is(err, ErrNotRewritable) {
		t.Errorf("want ErrNotRewritable, got %v", err)
	}
	if _, err := RewriteSafe(cq.Q0()); !errors.Is(err, ErrUnsafe) {
		t.Errorf("want ErrUnsafe, got %v", err)
	}
}
