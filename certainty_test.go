package certainty

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"testing"
)

// TestQuickstartFlow exercises the doc-comment example end to end.
func TestQuickstartFlow(t *testing.T) {
	q, err := ParseQuery("C(x, y | 'Rome'), R(x | 'A')")
	if err != nil {
		t.Fatal(err)
	}
	d := ConferenceDB()
	res, err := Solve(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Certain {
		t.Error("Fig. 1: not certain (3 of 4 repairs)")
	}
	if res.Method != MethodFO {
		t.Errorf("method = %v", res.Method)
	}
	cls, err := Classify(q)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Class != ClassFO || !cls.Class.InP() {
		t.Errorf("class = %v", cls.Class)
	}
	phi, err := RewriteFO(q)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := EvalFormula(phi, d)
	if err != nil {
		t.Fatal(err)
	}
	if ok != res.Certain {
		t.Error("rewriting disagrees with solver")
	}
	sql, err := RewriteSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "EXISTS") {
		t.Errorf("SQL = %s", sql)
	}
}

func TestFacadeConstruction(t *testing.T) {
	q := NewQuery(
		NewAtom("R", 1, Var("x"), Var("y")),
		NewAtom("S", 1, Var("y"), Const("c")),
	)
	if q.Len() != 2 || q.HasSelfJoin() {
		t.Error("query construction")
	}
	d := NewDB()
	if err := d.Add(NewFact("R", 1, "a", "b")); err != nil {
		t.Fatal(err)
	}
	if !Eval(MustParseQuery("R(x | y)"), d) {
		t.Error("Eval via facade")
	}
	if !IsQueryAcyclic(q) {
		t.Error("acyclicity via facade")
	}
	if g, err := AttackGraphOf(q); err != nil || g.Len() != 2 {
		t.Errorf("attack graph via facade: %v", err)
	}
}

func TestFacadeFamilies(t *testing.T) {
	if Q0().Len() != 2 || Q1().Len() != 4 || Ck(3).Len() != 3 || ACk(3).Len() != 4 {
		t.Error("family sizes")
	}
	if TerminalCyclesQuery().Len() != 7 || ConferenceQuery().Len() != 2 {
		t.Error("family sizes")
	}
	if Figure6DB().Len() != 12 || ConferenceDB().Len() != 6 {
		t.Error("database sizes")
	}
}

func TestFacadeProbability(t *testing.T) {
	d := ConferenceDB()
	q := ConferenceQuery()
	if !IsSafe(q) {
		t.Fatal("conference query is safe")
	}
	pr, err := Probability(q, Uniform(d))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Cmp(big.NewRat(3, 4)) != 0 {
		t.Errorf("Pr = %v, want 3/4", pr)
	}
	if ProbabilityByWorlds(q, Uniform(d)).Cmp(pr) != 0 {
		t.Error("world enumeration disagrees")
	}
	if got := CountSatisfyingRepairs(q, d); got.Cmp(big.NewInt(3)) != 0 {
		t.Errorf("count = %v", got)
	}
	if got, err := CountViaUniform(q, d); err != nil || got.Cmp(big.NewInt(3)) != 0 {
		t.Errorf("count via uniform = %v, %v", got, err)
	}
}

func TestFacadePurifyAndReductions(t *testing.T) {
	q := MustParseQuery("R(x | y), S(y | x)")
	d := MustParseDB("R(a | b), S(b | a), S(b | c)")
	if p := Purify(q, d); p.Len() != 0 {
		t.Errorf("Example 1 purifies to empty, got %d facts", p.Len())
	}
	r, err := NewTheorem2Reduction(Q1())
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Apply(MustParseDB("R0(a | b), S0(b, z | a)"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("reduction image should be nonempty")
	}
	comp, err := CompleteAllKey(ACk(2), Ck(2), MustParseDB("R1(a | b), R2(b | a)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.FactsOf("S2")) != 4 { // |D|^2 = 4
		t.Errorf("completion size = %d", len(comp.FactsOf("S2")))
	}
}

func TestFacadeClassifyCatalog(t *testing.T) {
	cases := map[string]Class{
		"R(x | y), S(y | z)": ClassFO,
	}
	for s, want := range cases {
		cls, err := Classify(MustParseQuery(s))
		if err != nil {
			t.Fatal(err)
		}
		if cls.Class != want {
			t.Errorf("%s: %v", s, cls.Class)
		}
	}
	checks := []struct {
		q    Query
		want Class
	}{
		{Q1(), ClassCoNPComplete},
		{Ck(2), ClassPTimeTerminal},
		{Ck(4), ClassPTimeCk},
		{ACk(4), ClassPTimeACk},
		{TerminalCyclesQuery(), ClassPTimeTerminal},
	}
	for _, c := range checks {
		cls, err := Classify(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if cls.Class != c.want {
			t.Errorf("%s: %v, want %v", c.q, cls.Class, c.want)
		}
	}
}

func TestFacadeFalsifyingRepair(t *testing.T) {
	q := ConferenceQuery()
	d := ConferenceDB()
	rep, found, err := FalsifyingRepair(context.Background(), q, d)
	if err != nil || !found || len(rep) != d.NumBlocks() {
		t.Errorf("falsifying repair: found=%v len=%d err=%v", found, len(rep), err)
	}
	if certain, err := CertainBruteForce(context.Background(), MustParseQuery("R(x | y)"), MustParseDB("R(a | b)")); err != nil || !certain {
		t.Errorf("singleton certain: %v, %v", certain, err)
	}
	if len(Embeddings(q, d)) == 0 {
		t.Error("embeddings exist")
	}
}

// TestFacadeSweep exercises the remaining facade surface.
func TestFacadeSweep(t *testing.T) {
	d := ConferenceDB()

	// Certain answers agree with brute force on every candidate.
	q := MustParseQuery("R(x | r)")
	ans, err := CertainAnswers(context.Background(), q, []string{"x"}, d, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var brute []Answer
	for _, a := range ans.Possible {
		certain, err := CertainBruteForce(context.Background(), q.Substitute(Valuation{"x": a[0]}), d)
		if err != nil {
			t.Fatal(err)
		}
		if certain {
			brute = append(brute, a)
		}
	}
	if len(ans.Certain) != len(brute) {
		t.Errorf("certain answers differ from brute force: %v vs %v", ans.Certain, brute)
	}

	// Probabilistic ranking.
	ranked, err := AnswersWithProbabilities(q, []string{"x", "r"}, d)
	if err != nil || len(ranked) != 3 {
		t.Fatalf("ranked = %v, %v", ranked, err)
	}
	if ranked[0].Pr.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("top answer should have probability 1: %v", ranked[0])
	}

	// Statistical screen.
	certain, witness := EstimateCertain(ConferenceQuery(), d, 200, 1)
	if certain || witness == nil {
		t.Error("sampling should refute certainty of the Rome query")
	}

	// Free-variable rewriting and EvalFormulaWith.
	phi, err := RewriteFOFree(q, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := EvalFormulaWith(phi, d, Valuation{"x": "PODS"})
	if err != nil || ok {
		// R(x | r) with r existential: certain for PODS? The block has one
		// fact R(PODS,A), so yes certain.
		if err != nil {
			t.Fatal(err)
		}
	}

	// Theorem 6 rewriting via the facade.
	if _, err := RewriteSafe(MustParseQuery("R(w | x, y), S(w | y, z), T(w | z, x)")); err != nil {
		t.Errorf("RewriteSafe: %v", err)
	}

	// Families and misc helpers.
	if TerminalPairsQuery(2, true).Len() != 5 {
		t.Error("TerminalPairsQuery")
	}
	if OpenCaseQuery().Len() != 3 {
		t.Error("OpenCaseQuery")
	}
	if !IsQueryAcyclic(MustParseQuery("R(x | y)")) || IsQueryAcyclic(Ck(3)) {
		t.Error("IsQueryAcyclic")
	}
	if Var("x").IsConst || !Const("c").IsConst {
		t.Error("term constructors")
	}
	if NewAtom("R", 1, Var("x")).Rel != "R" {
		t.Error("NewAtom")
	}
	if NewFact("R", 1, "a").Rel != "R" {
		t.Error("NewFact")
	}
	p := NewProbDB()
	if err := p.Add(NewFact("R", 1, "a", "b"), big.NewRat(1, 2)); err != nil {
		t.Error(err)
	}
	if ProbabilityByWorlds(MustParseQuery("R(x | y)"), p).Cmp(big.NewRat(1, 2)) != 0 {
		t.Error("ProbabilityByWorlds via facade")
	}
	if got := CountSatisfyingRepairs(ConferenceQuery(), d); got.Cmp(big.NewInt(3)) != 0 {
		t.Errorf("CountSatisfyingRepairs = %v", got)
	}
	g, err := AttackGraphOf(Q1())
	if err != nil || g.Len() != 4 {
		t.Errorf("AttackGraphOf: %v %v", g, err)
	}
	if !Eval(ConferenceQuery(), d) {
		t.Error("Eval via facade")
	}
	if len(Embeddings(ConferenceQuery(), d)) == 0 {
		t.Error("Embeddings via facade")
	}
}

func TestFacadeSweep2(t *testing.T) {
	d := ConferenceDB()
	cache := NewClassificationCache()
	if _, err := cache.Classify(ConferenceQuery()); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Error("cache should hold one entry")
	}
	canon, _ := CanonicalizeQuery(MustParseQuery("S(y | x), R(x | y)"))
	if canon.Atoms[0].Rel != "R" {
		t.Errorf("canonical atom order: %s", canon)
	}
	p := RandomBID(d, 1)
	if p.DB().Len() != d.Len() {
		t.Error("RandomBID should cover all facts")
	}
	if got := CountSatisfyingSharded(ConferenceQuery(), d); got.Cmp(big.NewInt(3)) != 0 {
		t.Errorf("sharded count = %v", got)
	}
	plan := ExplainPlan(ConferenceQuery(), d)
	if len(plan.Steps) != 2 {
		t.Errorf("plan = %v", plan)
	}
	phi, err := RewriteFO(ConferenceQuery())
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := CompileFormula(phi)
	if err != nil {
		t.Fatal(err)
	}
	got, err := compiled.Eval(d)
	if err != nil || got {
		t.Errorf("compiled eval = %v, %v (not certain expected)", got, err)
	}
}

func TestFacadeGovernedSolve(t *testing.T) {
	q := Q0()
	d := MustParseDB("R0(a | b), R0(a | c), S0(b, z | a), S0(c, z | a)")

	// Unlimited: agrees with brute force.
	v, err := SolveCtx(context.Background(), q, d, SolveOptions{})
	if err != nil {
		t.Fatalf("SolveCtx: %v", err)
	}
	want, err := CertainBruteForce(context.Background(), q, d)
	if err != nil {
		t.Fatalf("CertainBruteForce: %v", err)
	}
	if v.Outcome == OutcomeUnknown || v.Result.Certain != want {
		t.Fatalf("governed verdict %v/%v disagrees with brute force %v", v.Outcome, v.Result.Certain, want)
	}

	// A one-step budget on this coNP instance degrades to unknown with a
	// sampled estimate (the instance is certain, so no sampled falsifier).
	v, err = SolveCtx(context.Background(), q, d, SolveOptions{Budget: 1, DegradeSamples: 64})
	if err != nil {
		t.Fatalf("SolveCtx(budget): %v", err)
	}
	if v.Outcome != OutcomeUnknown {
		t.Fatalf("Outcome = %v, want unknown under a one-step budget", v.Outcome)
	}
	if v.Evidence == nil || v.Evidence.Samples == 0 {
		t.Fatal("unknown verdict missing the sampled estimate")
	}
}

func TestFacadeGovernedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// Ten two-fact blocks and a query every repair satisfies: brute force
	// cannot stop early, so it crosses the cancellation poll interval.
	bruteDB := NewDB()
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := bruteDB.Add(NewFact("R", 1, k, "a")); err != nil {
			t.Fatal(err)
		}
		if err := bruteDB.Add(NewFact("R", 1, k, "b")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := CertainBruteForce(ctx, MustParseQuery("R(x | y)"), bruteDB); err == nil {
		t.Fatal("CertainBruteForce ignored a canceled context")
	}

	// A large certain q0 ring: the falsifying search needs hundreds of
	// nodes, well past the poll interval.
	ringDB := NewDB()
	n := 61 // odd: the ring is certain, so the search must traverse it all
	for i := 0; i < n; i++ {
		xi, xn, zi := fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", (i+1)%n), fmt.Sprintf("z%d", i)
		for _, f := range []Fact{
			NewFact("R0", 1, xi, "A"),
			NewFact("R0", 1, xi, "B"),
			NewFact("S0", 2, "A", zi, xi),
			NewFact("S0", 2, "A", zi, xn),
			NewFact("S0", 2, "B", zi, xi),
			NewFact("S0", 2, "B", zi, xn),
		} {
			if err := ringDB.Add(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := FalsifyingRepair(ctx, Q0(), ringDB); err == nil {
		t.Fatal("FalsifyingRepair ignored a canceled context")
	}
}
