package solver

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/core"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
)

// TestTerminalPairsAgainstBruteForce drives the Theorem 3 algorithm across
// the generalized Fig. 4 family.
func TestTerminalPairsAgainstBruteForce(t *testing.T) {
	for _, withRoot := range []bool{false, true} {
		for n := 1; n <= 3; n++ {
			q := gen.TerminalPairsQuery(n, withRoot)
			for seed := int64(0); seed < 20; seed++ {
				d := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 1, Domain: 2}, seed)
				want := BruteForce(q, d)
				got, err := CertainTerminal(q, d)
				if err != nil {
					t.Fatalf("n=%d root=%v seed=%d: %v", n, withRoot, seed, err)
				}
				if got != want {
					t.Errorf("n=%d root=%v seed=%d: thm3=%v brute=%v on\n%s",
						n, withRoot, seed, got, want, d)
				}
			}
		}
	}
}

// TestOpenCaseSolvedViaSimplification: the §6.2 open-class query is
// paper-classified as open, but the projection simplification rewrites it
// to AC(2), which Theorem 4 decides in polynomial time — results agree
// with brute force throughout (evidence for Conjecture 1).
func TestOpenCaseSolvedViaSimplification(t *testing.T) {
	q := gen.OpenCaseQuery()
	for seed := int64(0); seed < 40; seed++ {
		d := gen.RandomDB(q, gen.Config{Embeddings: 3, Noise: 2, Domain: 2}, seed)
		res, err := SolveResult(q, d)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Classification.Class != core.ClassOpenConjecturedPTime {
			t.Fatalf("paper classification must stay open, got %v", res.Classification.Class)
		}
		if res.Simplified == nil || res.Method != MethodACk || res.SimplifiedClass != core.ClassPTimeACk {
			t.Fatalf("expected AC(2) via projection, got method %v simplified %+v class %v",
				res.Method, res.Simplified, res.SimplifiedClass)
		}
		if len(res.Simplified.Projected) != 1 || res.Simplified.Projected[0] != "S" {
			t.Errorf("projection report = %+v", res.Simplified)
		}
		if want := BruteForce(q, d); res.Certain != want {
			t.Errorf("seed %d: solve=%v brute=%v", seed, res.Certain, want)
		}
	}
}

// TestSimplificationAcrossClasses: the projection rule is sound on queries
// of every origin class (validated against brute force), and queries with
// no eligible atom are untouched.
func TestSimplificationAcrossClasses(t *testing.T) {
	// q1 with an extra private column on P: still coNP after
	// simplification (the strong cycle is elsewhere), exercised via Solve.
	q := cq.MustParseQuery("R(u | 'a', x), S(y | x, z), T(x | y), P(x | z, w)")
	for seed := int64(0); seed < 15; seed++ {
		d := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 1, Domain: 2}, seed)
		res, err := SolveResult(q, d)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := BruteForce(q, d); res.Certain != want {
			t.Errorf("seed %d: solve=%v brute=%v", seed, res.Certain, want)
		}
	}
	// Ineligible cases leave the query untouched.
	for _, s := range []string{
		"R(x | y), S(y | x)",      // non-key vars shared
		"R(x | 'c'), S(x | y, y)", // constants / repeated private vars
	} {
		qq := cq.MustParseQuery(s)
		if q2, _, rep := simplifyProjection(qq); rep != nil || !q2.Equal(qq) {
			t.Errorf("%s: unexpected simplification %+v -> %s", s, rep, q2)
		}
	}
	// Signature-mismatched facts are dropped, not projected into
	// fabricated all-key facts.
	open := gen.OpenCaseQuery()
	_, rewrite, rep := simplifyProjection(open)
	if rep == nil {
		t.Fatal("open case must simplify")
	}
	d := db.MustParse("S(a, b | c, d)") // arity 4 ≠ atom arity 3
	out, err := rewrite(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("mismatched facts must be dropped, got:\n%s", out)
	}
}

// TestStaticOrderingAblationAgrees: both search orders are exact.
func TestStaticOrderingAblationAgrees(t *testing.T) {
	queries := []cq.Query{cq.Q0(), cq.Q1(), gen.OpenCaseQuery()}
	for _, q := range queries {
		for seed := int64(0); seed < 20; seed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 3, Noise: 2, Domain: 2}, seed)
			_, dyn := FalsifyingRepair(q, d)
			repS, stat := FalsifyingRepairStatic(q, d)
			if dyn != stat {
				t.Errorf("%s seed %d: dynamic=%v static=%v", q, seed, dyn, stat)
			}
			if stat {
				// The static witness must be a genuine falsifying repair.
				rd := db.RepairDB(repS)
				if rd.NumBlocks() != d.NumBlocks() {
					t.Errorf("%s seed %d: static witness not maximal", q, seed)
				}
			}
		}
	}
	// SAT-encoded instances as well.
	for seed := int64(0); seed < 10; seed++ {
		f := gen.RandomMonotoneSAT(4, 8, 2, seed)
		d := gen.MonotoneSATQ0DB(f)
		_, dyn := FalsifyingRepair(cq.Q0(), d)
		_, stat := FalsifyingRepairStatic(cq.Q0(), d)
		if dyn != stat || dyn != f.Satisfiable() {
			t.Errorf("seed %d: dyn=%v stat=%v sat=%v", seed, dyn, stat, f.Satisfiable())
		}
	}
}

// TestCyclicSafeDispatch: a safe query with a cyclic hypergraph has no
// attack graph, yet Theorem 6 makes it FO; Solve must dispatch to the safe
// rewriting and agree with brute force.
func TestCyclicSafeDispatch(t *testing.T) {
	q := cq.MustParseQuery("R(w | x, y), S(w | y, z), T(w | z, x)")
	for seed := int64(0); seed < 25; seed++ {
		d := gen.RandomDB(q, gen.Config{Embeddings: 3, Noise: 2, Domain: 2}, seed)
		res, err := SolveResult(q, d)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Method != MethodSafeRewriting {
			t.Fatalf("expected safe-rewriting dispatch, got %v", res.Method)
		}
		if want := BruteForce(q, d); res.Certain != want {
			t.Errorf("seed %d: solve=%v brute=%v", seed, res.Certain, want)
		}
	}
}

// TestFalsifyingRepairContext: cancellation aborts the search with the
// context error; an ample deadline reproduces the plain result.
func TestFalsifyingRepairContext(t *testing.T) {
	q := cq.Q0()
	f := gen.RandomMonotoneSAT(24, 192, 3, 2408) // unsatisfiable: the E3 instance that takes ~200ms
	d := gen.MonotoneSATQ0DB(f)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, err := FalsifyingRepairContext(ctx, q, d)
	if err == nil {
		t.Skip("instance solved before the 1ms deadline; cancellation path not exercised")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want DeadlineExceeded, got %v", err)
	}

	small := gen.MonotoneSATQ0DB(gen.RandomMonotoneSAT(4, 8, 2, 5))
	rep, found, err := FalsifyingRepairContext(context.Background(), q, small)
	if err != nil {
		t.Fatal(err)
	}
	_, plainFound := FalsifyingRepair(q, small)
	if found != plainFound {
		t.Errorf("context variant disagrees: %v vs %v", found, plainFound)
	}
	if found && db.RepairDB(rep).NumBlocks() != small.NumBlocks() {
		t.Error("witness must be a full repair")
	}
}
