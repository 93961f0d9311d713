// Quickstart: parse a query and an uncertain database, classify the
// query's CERTAINTY complexity, and decide certainty.
package main

import (
	"context"
	"fmt"
	"log"

	certainty "github.com/cqa-go/certainty"
)

func main() {
	// An uncertain database: primary keys (left of the bar) need not hold.
	// Two facts claim a different city for PODS 2016 — one block, two
	// choices, and a repair keeps exactly one of them.
	d, err := certainty.ParseDB(`
		C(PODS, 2016 | Rome)
		C(PODS, 2016 | Paris)
		C(KDD, 2017 | Rome)
		R(PODS | A)
		R(KDD | A)
		R(KDD | B)
	`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database has %d facts, %d blocks, %v repairs\n",
		d.Len(), d.NumBlocks(), d.NumRepairs())

	// "Will Rome host some A conference?"
	q, err := certainty.ParseQuery("C(x, y | 'Rome'), R(x | 'A')")
	if err != nil {
		log.Fatal(err)
	}

	// Classify CERTAINTY(q) with the attack-graph method.
	cls, err := certainty.Classify(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CERTAINTY(q) is %s\n", cls.Class)
	fmt.Printf("because: %s\n", cls.Reason)

	// Decide: is q true in every repair?
	res, err := certainty.Solve(q, d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certain: %v (method: %s)\n", res.Certain, res.Method)

	// Not certain — exhibit a repair where the answer is no.
	rep, found, err := certainty.FalsifyingRepair(context.Background(), q, d)
	if err != nil {
		log.Fatal(err)
	}
	if found {
		fmt.Println("a repair falsifying q:")
		for _, f := range rep {
			fmt.Printf("  %s\n", f)
		}
	}

	// The query is FO-rewritable: print the consistent SQL rewriting.
	sql, err := certainty.RewriteSQL(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consistent SQL rewriting:\n%s", sql)
}
