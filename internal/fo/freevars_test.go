package fo

import (
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
)

func TestRewriteAcyclicFreeConference(t *testing.T) {
	// Which conferences are certainly rank A?
	q := cq.MustParseQuery("R(x | 'A')")
	phi, err := RewriteAcyclicFree(q, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if got := FreeVars(phi); !got.Equal(cq.NewVarSet("x")) {
		t.Fatalf("free vars of rewriting = %v", got)
	}
	d := gen.ConferenceDB()
	cases := map[string]bool{"PODS": true, "KDD": false, "ICDT": false}
	for conf, want := range cases {
		got, err := EvalWith(phi, d, cq.Valuation{"x": conf})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("certain rank-A for %s = %v, want %v", conf, got, want)
		}
	}
}

func TestRewriteAcyclicFreeAgainstBruteForce(t *testing.T) {
	cases := []struct {
		q    cq.Query
		free []string
	}{
		{cq.MustParseQuery("R(x | y), S(y | z)"), []string{"x"}},
		{cq.MustParseQuery("R(x | y), S(y | z)"), []string{"x", "z"}},
		{cq.MustParseQuery("R(x | y)"), []string{"y"}},
	}
	for _, c := range cases {
		phi, err := RewriteAcyclicFree(c.q, c.free)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		for seed := int64(0); seed < 15; seed++ {
			d := gen.RandomDB(c.q, gen.Config{Embeddings: 3, Noise: 2, Domain: 2}, seed)
			// Check every active-domain tuple.
			dom := d.ActiveDomain()
			var rec func(i int, env cq.Valuation)
			rec = func(i int, env cq.Valuation) {
				if i == len(c.free) {
					got, err := EvalWith(phi, d, env)
					if err != nil {
						t.Fatal(err)
					}
					want := bruteCertain(c.q.Substitute(env), d)
					if got != want {
						t.Errorf("%s %v: rewriting=%v brute=%v", c.q, env, got, want)
					}
					return
				}
				for _, a := range dom {
					rec(i+1, env.Bind(c.free[i], a))
				}
			}
			rec(0, cq.Valuation{})
		}
	}
}

func TestRewriteAcyclicFreeErrors(t *testing.T) {
	q := cq.MustParseQuery("R(x | y)")
	if _, err := RewriteAcyclicFree(q, []string{"zzz"}); err == nil {
		t.Error("unknown free variable must be rejected")
	}
	if _, err := RewriteAcyclicFree(q, []string{"x", "x"}); err == nil {
		t.Error("duplicate free variable must be rejected")
	}
	if _, err := RewriteAcyclicFree(cq.Q1(), []string{"u"}); err == nil {
		t.Error("cyclic attack graph (after freezing) must be rejected")
	}
	collide := cq.NewQuery(cq.NewAtom("R", 1, cq.Var("x"), cq.Const(markerPrefix+"0")))
	if _, err := RewriteAcyclicFree(collide, []string{"x"}); err == nil {
		t.Error("marker collision must be rejected")
	}
}

func TestFreezingCanHelp(t *testing.T) {
	// C(2) has a cyclic attack graph, but freezing x1 breaks the cycle:
	// certain answers for x1 are FO-computable even though the Boolean
	// problem is not FO.
	q := cq.Ck(2)
	if !CanRewriteFree(q, []string{"x1"}) {
		t.Fatal("freezing x1 should break C(2)'s attack cycle")
	}
	phi, err := RewriteAcyclicFree(q, []string{"x1"})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		d := gen.RandomDB(q, gen.Config{Embeddings: 3, Noise: 2, Domain: 2}, seed)
		for _, a := range d.ActiveDomain() {
			got, err := EvalWith(phi, d, cq.Valuation{"x1": a})
			if err != nil {
				t.Fatal(err)
			}
			want := bruteCertain(q.Substitute(cq.Valuation{"x1": a}), d)
			if got != want {
				t.Errorf("seed %d x1=%s: rewriting=%v brute=%v", seed, a, got, want)
			}
		}
	}
}

func TestEvalWithErrors(t *testing.T) {
	phi := Eq{L: cq.Var("x"), R: cq.Const("a")}
	if _, err := EvalWith(phi, db.New(), cq.Valuation{}); err == nil {
		t.Error("unbound free variable must be rejected")
	}
	got, err := EvalWith(phi, db.New(), cq.Valuation{"x": "a"})
	if err != nil || !got {
		t.Errorf("EvalWith = %v, %v", got, err)
	}
}
