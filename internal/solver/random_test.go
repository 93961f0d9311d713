package solver

import (
	"context"
	"math/big"
	"testing"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/gen"
)

// TestSolveRandomQueries is the widest net in the suite: random
// self-join-free acyclic queries of every attack-graph shape, random
// databases, dispatched solver vs brute force. Any classification or
// algorithm bug that affects answers on small instances surfaces here.
func TestSolveRandomQueries(t *testing.T) {
	classCounts := make(map[core.Class]int)
	checked := 0
	for qseed := int64(0); qseed < 120; qseed++ {
		q := gen.RandomAcyclicQuery(qseed, 4)
		cls, err := core.Classify(q)
		if err != nil {
			continue // cyclic or otherwise out of scope
		}
		classCounts[cls.Class]++
		for dseed := int64(0); dseed < 6; dseed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 2, Domain: 2}, dseed)
			if d.NumRepairs().Cmp(big.NewInt(4096)) > 0 {
				continue
			}
			v, err := SolveCtx(context.Background(), q, d, Options{})
			res := v.Result
			if err != nil {
				t.Fatalf("q=%s dseed=%d: %v", q, dseed, err)
			}
			checked++
			if want := BruteForce(q, d); res.Certain != want {
				t.Errorf("q=%s (class %v, method %v) dseed=%d: solve=%v brute=%v\ndb:\n%s",
					q, cls.Class, res.Method, dseed, res.Certain, want, d)
			}
		}
	}
	if checked < 300 {
		t.Errorf("too few instances checked: %d", checked)
	}
	// The random family must exercise at least the FO class heavily and
	// hit some cyclic-attack-graph classes.
	if classCounts[core.ClassFO] == 0 {
		t.Error("no FO queries generated")
	}
	t.Logf("class distribution over random queries: %v, instances checked: %d", classCounts, checked)
}

// TestSolveRandomKeySwappedQueries generates queries biased toward attack
// cycles (atoms sharing variables with swapped key/non-key roles) to hit
// the non-FO classes more often.
func TestSolveRandomKeySwappedQueries(t *testing.T) {
	families := []string{
		"F(x, a | b), G(x, b | a)",
		"F(x, a | b), G(x, b | a), H(y, c | d), I(y, d | c)",
		"F(a | b), G(b | a), S(a, b | z)",
		"R1(x | y), R2(y | x), T(x | w)",
		"R(x | y), S(y | x, z)",
		"R(x, y | z), S(y, z | x)",
	}
	for _, fam := range families {
		q := cq.MustParseQuery(fam)
		cls, err := core.Classify(q)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for dseed := int64(0); dseed < 25; dseed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 3, Noise: 2, Domain: 2}, dseed)
			if d.NumRepairs().Cmp(big.NewInt(100_000)) > 0 {
				continue
			}
			v, err := SolveCtx(context.Background(), q, d, Options{})
			res := v.Result
			if err != nil {
				t.Fatalf("%s dseed=%d: %v", fam, dseed, err)
			}
			if want := BruteForce(q, d); res.Certain != want {
				t.Errorf("%s (class %v, method %v) dseed=%d: solve=%v brute=%v\ndb:\n%s",
					fam, cls.Class, res.Method, dseed, res.Certain, want, d)
			}
		}
	}
}
