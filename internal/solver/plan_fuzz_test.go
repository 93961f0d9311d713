package solver

import (
	"context"
	"math/big"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
)

// FuzzPlanAgainstBruteForce: the payload decodes, through the query and
// database parsers, into a self-join-free query of at most 4 atoms and a
// database of at most 10 facts. Whenever the query compiles into a plan
// and the database has at most 4,096 repairs, the plan's unbounded solve
// must give a conclusive verdict equal to brute force, whichever method it
// dispatches to. The seeds hold one instance per method.
func FuzzPlanAgainstBruteForce(f *testing.F) {
	seeds := []struct{ query, facts string }{
		// Theorem 1 (FO rewriting).
		{"R(x | y), S(y | z)", "R(a | b)\nR(a | c)\nS(b | d)\nS(c | d)\nR(e | f)"},
		// Theorem 3 with an unattacked root above its 2-cycle.
		{gen.TerminalPairsQuery(1, true).String(), "R0(w | p)\nR0(w | r)\nF0(p, q, a | b)\nF0(p, q, a | c)\nG0(p, q, b | a)\nG0(p, q, c | a)\nF0(r, q, a | b)\nG0(r, q, b | a)"},
		// C(2): Theorem 3 at its base case.
		{cq.Ck(2).String(), "R1(a | b)\nR1(a | c)\nR2(b | a)\nR2(c | a)\nR1(d | e)\nR2(e | f)"},
		// C(3) (Corollary 1).
		{cq.Ck(3).String(), "R1(a | b)\nR1(a | c)\nR2(b | d)\nR2(c | d)\nR3(d | a)\nR3(d | e)"},
		// AC(2) (Theorem 4).
		{cq.ACk(2).String(), "R1(a | b)\nR1(a | c)\nR2(b | a)\nR2(c | a)\nS2(a, b)\nS2(a, c)"},
		// q0 (Theorem 2, exact falsifying search).
		{cq.Q0().String(), "R0(a | b)\nR0(a | c)\nS0(b, d | a)\nS0(c, d | e)\nR0(e | b)\nS0(b, f | e)"},
		// A safe query with a cyclic hypergraph (Theorem 6).
		{"R(w | x, y), S(w | y, z), T(w | z, x)", "R(a | b, c)\nR(a | c, b)\nS(a | c, b)\nS(a | b, b)\nT(a | b, b)\nT(a | b, c)"},
	}
	for _, s := range seeds {
		f.Add(s.query, s.facts)
	}
	f.Fuzz(func(t *testing.T, query, facts string) {
		q, err := cq.ParseQuery(query)
		if err != nil || q.Len() > 4 || q.HasSelfJoin() {
			t.Skip("not a self-join-free query of at most 4 atoms")
		}
		d, err := db.Parse(facts)
		if err != nil || d.Len() > 10 || d.NumRepairs().Cmp(big.NewInt(4096)) > 0 {
			t.Skip("not a database of at most 10 facts and 4,096 repairs")
		}
		p, err := CompilePlan(q)
		if err != nil {
			t.Skip("outside every method's scope")
		}
		v, err := p.SolveCtx(context.Background(), d, Options{})
		if err != nil {
			t.Fatalf("%s (method %v): %v\ndb:\n%s", q, p.Method, err, d)
		}
		if v.Outcome == OutcomeUnknown {
			t.Fatalf("%s (method %v): unbounded solve inconclusive: %v\ndb:\n%s", q, p.Method, v.Err, d)
		}
		if want := BruteForce(q, d); v.Result.Certain != want {
			t.Fatalf("%s (method %v): plan=%v brute=%v\ndb:\n%s", q, p.Method, v.Result.Certain, want, d)
		}
	})
}
