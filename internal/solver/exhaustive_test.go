package solver

import (
	"context"
	"testing"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
)

// enumerateDatabases calls visit with every database over the given
// candidate facts (2^n subsets). The visit callback must not retain d.
func enumerateDatabases(t *testing.T, candidates []db.Fact, visit func(d *db.DB)) {
	t.Helper()
	n := len(candidates)
	if n > 16 {
		t.Fatalf("too many candidate facts for exhaustive enumeration: %d", n)
	}
	for mask := 0; mask < 1<<uint(n); mask++ {
		d := db.New()
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				if err := d.Add(candidates[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		visit(d)
	}
}

// binaryFacts returns all facts rel(a|b) with a, b over the domain.
func binaryFacts(rel string, dom []string) []db.Fact {
	var out []db.Fact
	for _, a := range dom {
		for _, b := range dom {
			out = append(out, db.NewFact(rel, 1, a, b))
		}
	}
	return out
}

// TestExhaustiveC2 verifies CertainTerminal against brute force on every
// database for C(2) over a 2-element domain: 2^8 = 256 instances, total
// coverage of the two-atom weak-cycle solver's small-case behavior.
func TestExhaustiveC2(t *testing.T) {
	q := cq.Ck(2)
	dom := []string{"a", "b"}
	candidates := append(binaryFacts("R1", dom), binaryFacts("R2", dom)...)
	count := 0
	enumerateDatabases(t, candidates, func(d *db.DB) {
		count++
		want := BruteForce(q, d)
		got, err := CertainTerminal(context.Background(), q, d)
		if err != nil {
			t.Fatalf("db:\n%s: %v", d, err)
		}
		if got != want {
			t.Errorf("thm3=%v brute=%v on:\n%s", got, want, d)
		}
	})
	if count != 256 {
		t.Fatalf("expected 256 databases, saw %d", count)
	}
}

// TestExhaustiveAC2 verifies CertainACk on every AC(2) database over a
// 2-element domain (R1, R2 edges plus S2 tuples): 2^12 = 4096 instances.
func TestExhaustiveAC2(t *testing.T) {
	q := cq.ACk(2)
	dom := []string{"a", "b"}
	candidates := append(binaryFacts("R1", dom), binaryFacts("R2", dom)...)
	for _, a := range dom {
		for _, b := range dom {
			candidates = append(candidates, db.NewFact("S2", 2, a, b))
		}
	}
	v, err := SolveCtx(context.Background(), q, db.New(), Options{})
	res := v.Result
	if err != nil || res.Certain {
		t.Fatalf("empty database sanity: %v %v", res, err)
	}
	enumerateDatabases(t, candidates, func(d *db.DB) {
		want := BruteForce(q, d)
		v, err := SolveCtx(context.Background(), q, d, Options{})
		r := v.Result
		if err != nil {
			t.Fatalf("db:\n%s: %v", d, err)
		}
		if r.Certain != want {
			t.Errorf("solve=%v brute=%v on:\n%s", r.Certain, want, d)
		}
	})
}

// TestExhaustiveQ0Small verifies the falsifying search on every q0
// database over a minimal shape: R0 over {a}×{a,b} and S0 over
// {a,b}×{z}×{a}: 2^6 = 64 instances... extended with a second x value for
// 2^10 coverage.
func TestExhaustiveQ0(t *testing.T) {
	q := cq.Q0()
	var candidates []db.Fact
	for _, x := range []string{"p", "q"} {
		for _, y := range []string{"a", "b"} {
			candidates = append(candidates, db.NewFact("R0", 1, x, y))
		}
	}
	for _, y := range []string{"a", "b"} {
		for _, x := range []string{"p", "q"} {
			candidates = append(candidates, db.NewFact("S0", 2, y, "z", x))
		}
	}
	enumerateDatabases(t, candidates, func(d *db.DB) {
		want := BruteForce(q, d)
		if got, err := CertainByFalsifying(context.Background(), q, d); err != nil || got != want {
			t.Errorf("falsify=%v (err %v) brute=%v on:\n%s", got, err, want, d)
		}
	})
}

// TestExhaustiveFOPath verifies CertainFO on every database for the path
// query over a 2-element domain: 2^8 instances.
func TestExhaustiveFOPath(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	dom := []string{"a", "b"}
	candidates := append(binaryFacts("R", dom), binaryFacts("S", dom)...)
	enumerateDatabases(t, candidates, func(d *db.DB) {
		want := BruteForce(q, d)
		got, err := CertainFO(context.Background(), q, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("fo=%v brute=%v on:\n%s", got, want, d)
		}
	})
}

// TestExhaustiveTwoAtomSwapped verifies the two-atom weak-cycle solver on
// every database of the swapped-column pair over minimal domains:
// F(x,u|v), G(x,v|u) with x fixed and u,v over {a,b}: 2^8 = 256 instances
// (two blocks of two facts per relation).
func TestExhaustiveTwoAtomSwapped(t *testing.T) {
	q := cq.MustParseQuery("F(x, u | v), G(x, v | u)")
	F, G := q.Atoms[0], q.Atoms[1]
	var candidates []db.Fact
	for _, u := range []string{"a", "b"} {
		for _, v := range []string{"a", "b"} {
			candidates = append(candidates, db.NewFact("F", 2, "k", u, v))
			candidates = append(candidates, db.NewFact("G", 2, "k", v, u))
		}
	}
	if len(candidates) != 8 {
		t.Fatalf("candidates = %d, want 4 F-facts + 4 G-facts", len(candidates))
	}
	enumerateDatabases(t, candidates, func(d *db.DB) {
		want := BruteForce(q, d)
		got, err := twoAtomAllBlocks(F, G, d)
		if err != nil {
			t.Fatalf("db:\n%s: %v", d, err)
		}
		if got != want {
			t.Errorf("two-atom=%v brute=%v on:\n%s", got, want, d)
		}
	})
}

// TestExhaustiveOpenCase verifies Solve (which routes the §6.2 open-case
// query through the projection simplification into AC(2)) on every
// database over a minimal domain: R1, R2 edges over {a,b} plus S tuples
// with a single z value — 2^12 = 4096 instances against brute force.
func TestExhaustiveOpenCase(t *testing.T) {
	q := gen.OpenCaseQuery()
	dom := []string{"a", "b"}
	candidates := append(binaryFacts("R1", dom), binaryFacts("R2", dom)...)
	for _, x := range dom {
		for _, y := range dom {
			candidates = append(candidates, db.NewFact("S", 2, x, y, "z0"))
		}
	}
	enumerateDatabases(t, candidates, func(d *db.DB) {
		want := BruteForce(q, d)
		v, err := SolveCtx(context.Background(), q, d, Options{})
		res := v.Result
		if err != nil {
			t.Fatalf("db:\n%s: %v", d, err)
		}
		if res.Certain != want {
			t.Errorf("solve=%v brute=%v on:\n%s", res.Certain, want, d)
		}
	})
}

// TestExhaustiveOpenCaseWithBlockChoices adds a second z value so S-blocks
// genuinely have choices (the projection must be invariant to them):
// R1 edges fixed to the full bipartite set, S facts enumerated with two z
// options per key — 2^8 combinations over the S relation.
func TestExhaustiveOpenCaseWithBlockChoices(t *testing.T) {
	q := gen.OpenCaseQuery()
	dom := []string{"a", "b"}
	base := append(binaryFacts("R1", dom), binaryFacts("R2", dom)...)
	var sCandidates []db.Fact
	for _, x := range dom {
		for _, y := range dom {
			sCandidates = append(sCandidates, db.NewFact("S", 2, x, y, "z0"))
			sCandidates = append(sCandidates, db.NewFact("S", 2, x, y, "z1"))
		}
	}
	enumerateDatabases(t, sCandidates, func(sPart *db.DB) {
		d := db.New()
		for _, f := range base {
			if err := d.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range sPart.Facts() {
			if err := d.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		want := BruteForce(q, d)
		v, err := SolveCtx(context.Background(), q, d, Options{})
		res := v.Result
		if err != nil {
			t.Fatalf("db:\n%s: %v", d, err)
		}
		if res.Certain != want {
			t.Errorf("solve=%v brute=%v on:\n%s", res.Certain, want, d)
		}
	})
}

// TestExhaustiveC3 verifies the direct Corollary 1 solver on every C(3)
// database over one value per position pair: R1, R2, R3 edges over a
// 2-element domain per position boundary — 2^12 = 4096 instances.
func TestExhaustiveC3(t *testing.T) {
	q := cq.Ck(3)
	shape, ok := core.MatchCycleShape(q, false)
	if !ok {
		t.Fatal("C(3) shape")
	}
	var candidates []db.Fact
	for _, rel := range []string{"R1", "R2", "R3"} {
		for _, a := range []string{"p", "q"} {
			for _, b := range []string{"p", "q"} {
				candidates = append(candidates, db.NewFact(rel, 1, a, b))
			}
		}
	}
	enumerateDatabases(t, candidates, func(d *db.DB) {
		want := BruteForce(q, d)
		got, err := CertainCk(context.Background(), q, shape, d)
		if err != nil {
			t.Fatalf("db:\n%s: %v", d, err)
		}
		if got != want {
			t.Errorf("ck=%v brute=%v on:\n%s", got, want, d)
		}
	})
}
