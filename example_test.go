package certainty_test

import (
	"context"
	"fmt"

	certainty "github.com/cqa-go/certainty"
)

// The Fig. 1 scenario: classify a query and decide certainty.
func ExampleSolve() {
	d := certainty.ConferenceDB()
	q := certainty.MustParseQuery("C(x, y | 'Rome'), R(x | 'A')")
	res, err := certainty.Solve(q, d)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Classification.Class)
	fmt.Println(res.Certain)
	// Output:
	// first-order expressible (AC0)
	// false
}

func ExampleClassify() {
	cls, err := certainty.Classify(certainty.Q1())
	if err != nil {
		panic(err)
	}
	fmt.Println(cls.Class)
	// Output:
	// coNP-complete (Theorem 2)
}

func ExampleRewriteFO() {
	phi, err := certainty.RewriteFO(certainty.MustParseQuery("R(x | y)"))
	if err != nil {
		panic(err)
	}
	fmt.Println(phi)
	// Output:
	// ∃w1 ((∃w2 R(w1 | w2)) ∧ (∀w2 (R(w1 | w2) → ⊤)))
}

func ExampleCertainAnswers() {
	d := certainty.ConferenceDB()
	q := certainty.MustParseQuery("R(x | 'A')")
	res, err := certainty.CertainAnswers(context.Background(), q, []string{"x"}, d, certainty.SolveOptions{})
	if err != nil {
		panic(err)
	}
	for _, a := range res.Certain {
		fmt.Println("certain:", a[0])
	}
	for _, a := range res.Possible {
		fmt.Println("possible:", a[0])
	}
	// Output:
	// certain: PODS
	// possible: KDD
	// possible: PODS
}

func ExampleProbability() {
	d := certainty.ConferenceDB()
	q := certainty.ConferenceQuery()
	pr, err := certainty.Probability(q, certainty.Uniform(d))
	if err != nil {
		panic(err)
	}
	fmt.Println(pr)
	// Output:
	// 3/4
}

func ExampleFalsifyingRepair() {
	d := certainty.MustParseDB(`
		R(a | b)
		R(a | c)
		S(b | a)
	`)
	q := certainty.MustParseQuery("R(x | y), S(y | x)")
	rep, found, err := certainty.FalsifyingRepair(context.Background(), q, d)
	if err != nil {
		panic(err)
	}
	fmt.Println(found)
	for _, f := range rep {
		fmt.Println(f)
	}
	// Output:
	// true
	// S(b | a)
	// R(a | c)
}

func ExampleIsSafe() {
	fmt.Println(certainty.IsSafe(certainty.MustParseQuery("R(x | y), S(x | z)")))
	fmt.Println(certainty.IsSafe(certainty.MustParseQuery("R(x | y), S(y | z)")))
	// Output:
	// true
	// false
}

func ExamplePurify() {
	// Example 1 of the paper: S(b | c) joins with nothing, so purification
	// removes its block, which then strands R(a | b) too.
	d := certainty.MustParseDB("R(a | b), S(b | a), S(b | c)")
	q := certainty.MustParseQuery("R(x | y), S(y | x)")
	fmt.Println(certainty.Purify(q, d).Len())
	// Output:
	// 0
}
