package answers

import (
	"context"
	"errors"
	"math/big"
	"reflect"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/solver"
)

var bigOne = big.NewRat(1, 1)

func TestConferenceAnswers(t *testing.T) {
	d := gen.ConferenceDB()
	// "Which conferences are certainly rank A?"
	q := cq.MustParseQuery("R(x | 'A')")
	res, err := Certain(context.Background(), q, []string{"x"}, d, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Possible: PODS and KDD; certain: only PODS (KDD's rank is uncertain).
	wantPossible := []Answer{{"KDD"}, {"PODS"}}
	if !reflect.DeepEqual(res.Possible, wantPossible) {
		t.Errorf("Possible = %v", res.Possible)
	}
	if !reflect.DeepEqual(res.Certain, []Answer{{"PODS"}}) {
		t.Errorf("Certain = %v", res.Certain)
	}

	// "Which cities certainly host some conference?" Rome is the city of
	// KDD 2017 in every repair; Paris only in some.
	q2 := cq.MustParseQuery("C(x, y | c)")
	res2, err := Certain(context.Background(), q2, []string{"c"}, d, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Certain, []Answer{{"Rome"}}) {
		t.Errorf("Certain cities = %v", res2.Certain)
	}
	if !reflect.DeepEqual(res2.Possible, []Answer{{"Paris"}, {"Rome"}}) {
		t.Errorf("Possible cities = %v", res2.Possible)
	}
}

func TestMultipleFreeVariables(t *testing.T) {
	d := gen.ConferenceDB()
	q := cq.MustParseQuery("C(x, y | c), R(x | r)")
	res, err := Certain(context.Background(), q, []string{"x", "r"}, d, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// (PODS, A) is certain; KDD pairs are uncertain in rank.
	if !reflect.DeepEqual(res.Certain, []Answer{{"PODS", "A"}}) {
		t.Errorf("Certain = %v", res.Certain)
	}
	if len(res.Possible) != 3 { // (KDD,A), (KDD,B), (PODS,A)
		t.Errorf("Possible = %v", res.Possible)
	}
}

func TestBooleanAnswer(t *testing.T) {
	// No free variables: Certain reduces to the Boolean problem; the empty
	// tuple is the single possible answer iff the query is satisfiable.
	d := gen.ConferenceDB()
	q := cq.ConferenceQuery()
	res, err := Certain(context.Background(), q, nil, d, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Possible) != 1 || len(res.Possible[0]) != 0 {
		t.Errorf("Possible = %v", res.Possible)
	}
	if len(res.Certain) != 0 {
		t.Errorf("the Rome query is not certain: %v", res.Certain)
	}
}

func TestErrors(t *testing.T) {
	d := gen.ConferenceDB()
	q := cq.MustParseQuery("R(x | y)")
	if _, err := Certain(context.Background(), q, []string{"zzz"}, d, solver.Options{}); err == nil {
		t.Error("unknown free variable must be rejected")
	}
	if _, err := Certain(context.Background(), q, []string{"x", "x"}, d, solver.Options{}); err == nil {
		t.Error("duplicate free variable must be rejected")
	}
}

// TestCertainAgainstBruteForce validates the dispatched per-candidate
// solver against enumeration across query classes.
func TestCertainAgainstBruteForce(t *testing.T) {
	cases := []struct {
		q    cq.Query
		free []string
	}{
		{cq.MustParseQuery("R(x | y), S(y | z)"), []string{"x"}},
		{cq.MustParseQuery("R(x | y), S(y | z)"), []string{"x", "z"}},
		{cq.Ck(2), []string{"x1"}},
		{cq.ACk(3), []string{"x1"}},
		{cq.Q0(), []string{"x"}},
	}
	for _, c := range cases {
		for seed := int64(0); seed < 15; seed++ {
			d := gen.RandomDB(c.q, gen.Config{Embeddings: 3, Noise: 2, Domain: 2}, seed)
			fast, err := Certain(context.Background(), c.q, c.free, d, solver.Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.q, seed, err)
			}
			slow, err := CertainBruteForce(c.q, c.free, d)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast.Certain, slow) {
				t.Errorf("%s seed %d: fast=%v slow=%v", c.q, seed, fast.Certain, slow)
			}
			// Certain ⊆ Possible.
			pk := map[string]bool{}
			for _, a := range fast.Possible {
				pk[a.Key()] = true
			}
			for _, a := range fast.Certain {
				if !pk[a.Key()] {
					t.Errorf("%s seed %d: certain answer %v not possible", c.q, seed, a)
				}
			}
		}
	}
}

// TestCertainAnswerInstantiationClass: instantiating free variables can
// only simplify the query; e.g. q0 with x fixed becomes FO-solvable per
// candidate, and results still agree with enumeration (covered above).
// Here we check the substituted classification is accepted by Solve for
// every candidate of a coNP-classified query.
func TestCertainOnCoNPQuery(t *testing.T) {
	d := gen.MonotoneSATQ0DB(gen.RandomMonotoneSAT(3, 5, 2, 1))
	res, err := Certain(context.Background(), cq.Q0(), []string{"y"}, d, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := CertainBruteForce(cq.Q0(), []string{"y"}, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Certain, slow) {
		t.Errorf("fast=%v slow=%v", res.Certain, slow)
	}
}

// TestCertainBudgetCutoffFails: a candidate decided by the solver under limits
// that cut its solve off fails the whole call with the cutoff error rather
// than being reported as not certain.
func TestCertainBudgetCutoffFails(t *testing.T) {
	q := cq.Q0()
	free := []string{"z"} // freezing z keeps the strong cycle: no fast path
	d := gen.MonotoneSATQ0DB(gen.RandomMonotoneSAT(3, 5, 2, 1))
	if _, err := Certain(context.Background(), q, free, d, solver.Options{}); err != nil {
		t.Fatalf("unlimited: %v", err)
	}
	_, err := Certain(context.Background(), q, free, d, solver.Options{Budget: 1, DegradeSamples: -1})
	if !errors.Is(err, govern.ErrBudget) {
		t.Fatalf("err = %v, want the budget cutoff", err)
	}
}

// TestCertainParallelAgrees: the fanned-out answer computation matches
// brute-force enumeration across classes.
func TestCertainParallelAgrees(t *testing.T) {
	cases := []struct {
		q    cq.Query
		free []string
	}{
		{cq.MustParseQuery("R(x | y), S(y | z)"), []string{"x"}},
		{cq.ACk(3), []string{"x1"}},
		{cq.Q0(), []string{"y"}},
	}
	for _, c := range cases {
		for seed := int64(0); seed < 10; seed++ {
			d := gen.RandomDB(c.q, gen.Config{Embeddings: 3, Noise: 2, Domain: 2}, seed)
			want, err := CertainBruteForce(c.q, c.free, d)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Certain(context.Background(), c.q, c.free, d, solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Certain, want) {
				t.Errorf("%s seed %d: Certain=%v brute force=%v", c.q, seed, got.Certain, want)
			}
		}
	}
	if _, err := Certain(context.Background(), cq.MustParseQuery("R(x | y)"), []string{"zzz"}, gen.ConferenceDB(), solver.Options{}); err == nil {
		t.Error("bad free variable must be rejected")
	}
}

func TestWithProbabilities(t *testing.T) {
	d := gen.ConferenceDB()
	q := cq.MustParseQuery("R(x | r)")
	got, err := WithProbabilities(q, []string{"x", "r"}, d)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"PODS\x00A": "1",
		"KDD\x00A":  "1/2",
		"KDD\x00B":  "1/2",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d answers: %v", len(got), got)
	}
	for _, ap := range got {
		if w, ok := want[ap.Answer.Key()]; !ok || ap.Pr.RatString() != w {
			t.Errorf("%v: Pr=%v want %v", ap.Answer, ap.Pr, want[ap.Answer.Key()])
		}
	}
	// Sorted by probability, descending.
	if got[0].Answer.Key() != "PODS\x00A" {
		t.Errorf("highest-probability answer first: %v", got)
	}
	// Certain answers are exactly the probability-1 answers.
	res, err := Certain(context.Background(), q, []string{"x", "r"}, d, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	one := map[string]bool{}
	for _, ap := range got {
		if ap.Pr.Cmp(bigOne) == 0 {
			one[ap.Answer.Key()] = true
		}
	}
	for _, a := range res.Certain {
		if !one[a.Key()] {
			t.Errorf("certain answer %v lacks probability 1", a)
		}
	}
	if len(one) != len(res.Certain) {
		t.Errorf("probability-1 answers %v vs certain %v", one, res.Certain)
	}
}
