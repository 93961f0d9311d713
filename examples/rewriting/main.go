// Consistent query rewriting: turn certain answering into plain SQL.
// Demonstrates Theorem 1 rewritings (Boolean and with free variables), the
// Theorem 6 rewriting for a safe query with a *cyclic* hypergraph, and the
// effect of freezing a variable of C(2).
package main

import (
	"context"
	"fmt"
	"log"

	certainty "github.com/cqa-go/certainty"
)

func main() {
	// A registry with uncertain ownership and uncertain project leads.
	d, err := certainty.ParseDB(`
		Owns(svc_auth | alice)
		Owns(svc_auth | bob)
		Owns(svc_pay | carol)
		Lead(alice | infra)
		Lead(bob | infra)
		Lead(carol | payments)
		Lead(carol | fraud)
	`)
	if err != nil {
		log.Fatal(err)
	}

	// "Does some service certainly have an owner leading 'infra'?"
	q := certainty.MustParseQuery("Owns(s | o), Lead(o | 'infra')")
	cls, err := certainty.Classify(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("q = %s\nclass: %s\n\n", q, cls.Class)

	phi, err := certainty.RewriteFO(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certain rewriting (logic):\n  %s\n\n", phi)
	sql, err := certainty.RewriteSQL(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certain rewriting (SQL):\n%s\n", sql)
	res, err := certainty.Solve(q, d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certain on the registry: %v\n\n", res.Certain)

	// Free variables: "which services certainly have SOME owner?" and
	// "which (service, owner) pairs are certain?"
	owners := certainty.MustParseQuery("Owns(s | o)")
	ans, err := certainty.CertainAnswers(context.Background(), owners, []string{"s", "o"}, d, certainty.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("certain (service, owner) pairs:")
	for _, a := range ans.Certain {
		fmt.Printf("  %v\n", []string(a))
	}
	fmt.Println("possible (service, owner) pairs:")
	for _, a := range ans.Possible {
		fmt.Printf("  %v\n", []string(a))
	}

	// Freezing a free variable can break an attack cycle: CERTAINTY(C(2))
	// is not FO, but its certain answers for x1 are.
	c2 := certainty.Ck(2)
	if _, err := certainty.RewriteFO(c2); err != nil {
		fmt.Printf("\nC(2) Boolean rewriting: %v\n", err)
	}
	phiFree, err := certainty.RewriteFOFree(c2, []string{"x1"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C(2) rewriting with x1 free succeeds:\n  %s\n", phiFree)

	// Theorem 6 covers safe queries even without a join tree.
	cyclicSafe := certainty.MustParseQuery("R(w | x, y), S(w | y, z), T(w | z, x)")
	if _, err := certainty.RewriteFO(cyclicSafe); err != nil {
		fmt.Printf("\ncyclic-hypergraph query has no join tree: %v\n", err)
	}
	phiSafe, err := certainty.RewriteSafe(cyclicSafe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("but it is safe, so Theorem 6 rewrites it:\n  %s\n", phiSafe)
}
