// Data cleaning with certain answers: two CSV extracts disagree about
// employee departments and department buildings. Instead of picking one
// repair arbitrarily, query the whole space of repairs: certain answers
// are safe to act on, possible-but-uncertain ones need review, and
// sampling estimates how likely each uncertain answer is.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	certainty "github.com/cqa-go/certainty"
)

func main() {
	d := certainty.NewDB()
	load := func(rel string, keyLen int, file string) {
		f, err := os.Open(filepath.Join("examples", "datacleaning", "testdata", file))
		if err != nil {
			// Allow running from the example directory itself.
			f, err = os.Open(filepath.Join("testdata", file))
			if err != nil {
				log.Fatal(err)
			}
		}
		defer f.Close()
		if err := d.ReadCSV(rel, keyLen, f); err != nil {
			log.Fatal(err)
		}
	}
	// Emp(id | name, dept), Dept(name | building).
	load("Emp", 1, "employees.csv")
	load("Dept", 1, "departments.csv")

	fmt.Printf("loaded %d facts in %d blocks; %v repairs; consistent: %v\n\n",
		d.Len(), d.NumBlocks(), d.NumRepairs(), d.IsConsistent())

	// Which (employee, building) pairs are certain?
	q := certainty.MustParseQuery("Emp(e | n, dept), Dept(dept | b)")
	res, err := certainty.CertainAnswers(context.Background(), q, []string{"n", "b"}, d, certainty.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	certain := map[string]bool{}
	for _, a := range res.Certain {
		certain[a.Key()] = true
	}
	fmt.Println("(name, building) answers:")
	for _, a := range res.Possible {
		status := "UNCERTAIN"
		if certain[a.Key()] {
			status = "certain  "
		}
		// How often does the answer hold across repairs?
		inst := q.Substitute(certainty.Valuation{"n": a[0], "b": a[1]})
		sat := certainty.CountSatisfyingRepairs(inst, d)
		fmt.Printf("  %-9s %-6s in %-8s holds in %v/%v repairs\n",
			status, a[0], a[1], sat, d.NumRepairs())
	}

	// A quick statistical screen before running the exact solver.
	boolean := certainty.MustParseQuery("Emp(e | n, 'engineering'), Dept('engineering' | 'bldg1')")
	est, witness := certainty.EstimateCertain(boolean, d, 200, 1)
	exact, err := certainty.Solve(boolean, d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n\"someone certainly sits in engineering/bldg1\": sampled=%v exact=%v\n", est, exact.Certain)
	if witness != nil {
		fmt.Println("(sampling found a counterexample repair)")
	}

	// Probability of the uncertain facts under uniform repairs.
	pr, err := certainty.Probability(certainty.MustParseQuery("Emp('e1' | n, 'platform')"), certainty.Uniform(d))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pr(Ada is in platform) = %v\n", pr)
}
