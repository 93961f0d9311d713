// Cycle queries C(k) and AC(k) (Section 6.2): the Fuxman–Miller family
// whose complexity this paper settles (Theorem 4, Corollary 1). Reproduces
// the Fig. 6 database and the Fig. 7 falsifying repairs, then scales the
// polynomial graph-marking algorithm far beyond brute-force reach.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	certainty "github.com/cqa-go/certainty"
)

func main() {
	// The Fig. 5 attack graph: all attacks weak, all cycles nonterminal.
	q := certainty.ACk(3)
	cls, err := certainty.Classify(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AC(3) = %s\n%s\n\n", q, cls.Reason)

	// The Fig. 6 database: three clockwise 3-cycles encoded in S3.
	d := certainty.Figure6DB()
	fmt.Println("Fig. 6 database:")
	fmt.Print(d)
	res, err := certainty.Solve(q, d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certain: %v (Fig. 7 exhibits falsifying repairs)\n", res.Certain)
	rep, ok, err := certainty.FalsifyingRepair(context.Background(), q, d)
	if err != nil {
		log.Fatal(err)
	}
	if ok {
		fmt.Println("one falsifying repair (cf. Fig. 7):")
		for _, f := range rep {
			fmt.Printf("  %s\n", f)
		}
	}

	// C(k) for k >= 3 is a cyclic query: no attack graph exists, yet
	// Corollary 1 still puts CERTAINTY(C(k)) in P via Lemma 9.
	for _, k := range []int{2, 3, 4} {
		ck := certainty.Ck(k)
		cls, err := certainty.Classify(ck)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nC(%d): %s\n", k, cls.Class)
	}

	// Scale: decide CERTAINTY(AC(3)) on databases far beyond repair
	// enumeration (the width-2 component below already has 2^(3·width)
	// repairs per component).
	fmt.Println("\nscaling the Theorem 4 algorithm:")
	for _, comps := range []int{10, 100, 1000} {
		d := bigCycleDB(3, comps)
		start := time.Now()
		res, err := certainty.Solve(certainty.ACk(3), d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  components=%-5d facts=%-6d repairs=%v  certain=%v  (%v)\n",
			comps, d.Len(), d.NumRepairs(), res.Certain, time.Since(start).Round(time.Microsecond))
	}
}

// bigCycleDB builds `comps` disjoint tripartite components of width 2 with
// every 3-cycle encoded in S3.
func bigCycleDB(k, comps int) *certainty.DB {
	d := certainty.NewDB()
	val := func(c, pos, i int) string { return fmt.Sprintf("v%d_%d_%d", c, pos, i) }
	for c := 0; c < comps; c++ {
		for pos := 0; pos < k; pos++ {
			rel := fmt.Sprintf("R%d", pos+1)
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					if err := d.Add(certainty.NewFact(rel, 1, val(c, pos, i), val(c, (pos+1)%k, j))); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				for l := 0; l < 2; l++ {
					if err := d.Add(certainty.NewFact("S3", 3, val(c, 0, i), val(c, 1, j), val(c, 2, l))); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
	}
	return d
}
