package reduction

import (
	"context"
	"math/big"
	"testing"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/solver"
)

func TestTupleEncodingUnambiguous(t *testing.T) {
	if tuple("a", "b") == tuple("ab") || tuple("a", "b") == tuple("a", "b", "c") {
		t.Error("tuple encodings collide")
	}
	if tuple("a:b", "c") == tuple("a", "b:c") {
		t.Error("length prefixes must disambiguate")
	}
}

func TestNewTheorem2RequiresStrongCycle(t *testing.T) {
	if _, err := NewTheorem2(cq.ACk(3)); err == nil {
		t.Error("AC(3) has no strong cycle")
	}
	if _, err := NewTheorem2(cq.MustParseQuery("R(x | y), S(y | z)")); err == nil {
		t.Error("FO query has no strong cycle")
	}
	if _, err := NewTheorem2(cq.Ck(3)); err == nil {
		t.Error("cyclic query has no attack graph")
	}
	r, err := NewTheorem2(cq.Q1())
	if err != nil {
		t.Fatalf("q1 has a strong cycle: %v", err)
	}
	// In q1 the strong attack is G=S ↝ F=R, so the reduction's F must be S.
	if r.Q.Atoms[r.F].Rel != "S" || r.Q.Atoms[r.G].Rel != "R" {
		t.Errorf("strong pair = (%s, %s)", r.Q.Atoms[r.F].Rel, r.Q.Atoms[r.G].Rel)
	}
}

// TestTheorem2PreservesCertainty is the headline property: for random q0
// instances, db0 ∈ CERTAINTY(q0) ⟺ Apply(db0) ∈ CERTAINTY(q1).
func TestTheorem2PreservesCertainty(t *testing.T) {
	targets := []cq.Query{
		cq.Q1(),
		cq.Q0(), // reduction of q0 to itself must also work
	}
	q0 := cq.Q0()
	for _, target := range targets {
		r, err := NewTheorem2(target)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		for seed := int64(0); seed < 30; seed++ {
			db0 := gen.Q0DB(2, 2, 2, seed)
			want := solver.BruteForce(q0, db0)
			reduced, err := r.Apply(db0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", target, seed, err)
			}
			got := solver.BruteForce(target, reduced)
			if got != want {
				t.Errorf("%s seed %d: reduced certainty %v, source %v\nsource:\n%s",
					target, seed, got, want, db0)
			}
		}
	}
}

// TestSublemma4Bijection validates the repair bijection: repair counts
// match, mapped repairs are genuine repairs, distinct repairs map to
// distinct images, and satisfaction transfers.
func TestSublemma4Bijection(t *testing.T) {
	q0 := cq.Q0()
	r, err := NewTheorem2(cq.Q1())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 15; seed++ {
		db0 := engine.Purify(q0, gen.Q0DB(2, 2, 2, seed))
		reduced, err := r.Apply(db0)
		if err != nil {
			t.Fatal(err)
		}
		if db0.Len() == 0 {
			if reduced.Len() != 0 {
				t.Errorf("seed %d: empty source, nonempty image", seed)
			}
			continue
		}
		if db0.NumRepairs().Cmp(reduced.NumRepairs()) != 0 {
			t.Errorf("seed %d: repair counts differ: %v vs %v",
				seed, db0.NumRepairs(), reduced.NumRepairs())
		}
		seen := make(map[string]bool)
		count := 0
		db0.EachRepair(func(rep []db.Fact) bool {
			count++
			r0 := db.RepairDB(rep)
			img, err := r.MapRepair(db0, r0)
			if err != nil {
				t.Fatalf("seed %d: MapRepair: %v", seed, err)
			}
			if !img.IsConsistent() {
				t.Errorf("seed %d: image not consistent", seed)
			}
			if img.NumBlocks() != reduced.NumBlocks() {
				t.Errorf("seed %d: image not maximal (%d vs %d blocks)",
					seed, img.NumBlocks(), reduced.NumBlocks())
			}
			for _, f := range img.Facts() {
				if !reduced.Has(f) {
					t.Errorf("seed %d: image fact %s outside reduced db", seed, f)
				}
			}
			key := img.String()
			if seen[key] {
				t.Errorf("seed %d: map not injective", seed)
			}
			seen[key] = true
			if engine.Eval(q0, r0) != engine.Eval(cq.Q1(), img) {
				t.Errorf("seed %d: satisfaction not preserved", seed)
			}
			return count < 64 // cap the work per seed
		})
	}
}

func TestHatValuationRegions(t *testing.T) {
	// For q0 itself: F0=R0(x|y), G0=S0(y,z|x). The strong attack is from
	// one of them; verify θ̂ assigns every query variable and is injective
	// enough: distinct θ give distinct θ̂ images on vars outside F+∩G+.
	r, err := NewTheorem2(cq.Q0())
	if err != nil {
		t.Fatal(err)
	}
	t1 := cq.Valuation{"x": "1", "y": "2", "z": "3"}
	t2 := cq.Valuation{"x": "1", "y": "2", "z": "4"}
	h1, h2 := r.HatValuation(t1), r.HatValuation(t2)
	if len(h1) != 3 {
		t.Fatalf("θ̂ must bind x, y, z: %v", h1)
	}
	same := true
	for v := range h1 {
		if h1[v] != h2[v] {
			same = false
		}
	}
	if same {
		t.Error("distinct θ with different z must give distinct θ̂ (z occurs outside F⊕ ∪ G+ or in G+\\F⊕)")
	}
}

func TestLemma9C3ToAC3(t *testing.T) {
	c3, ac3 := cq.Ck(3), cq.ACk(3)
	for seed := int64(0); seed < 20; seed++ {
		d := gen.RandomDB(c3, gen.Config{Embeddings: 2, Noise: 1, Domain: 2}, seed)
		completed, err := Lemma9(ac3, c3, d)
		if err != nil {
			t.Fatal(err)
		}
		want := solver.BruteForce(c3, d)
		got := solver.BruteForce(ac3, completed)
		if got != want {
			t.Errorf("seed %d: Lemma9 certainty %v, source %v", seed, got, want)
		}
		// The completion must agree with the direct C(k) solver too.
		shape, ok := core.MatchCycleShape(c3, false)
		if !ok {
			t.Fatal("C(3) shape")
		}
		direct, err := solver.CertainCk(context.Background(), c3, shape, d)
		if err != nil {
			t.Fatal(err)
		}
		if direct != want {
			t.Errorf("seed %d: CertainCk %v, brute %v", seed, direct, want)
		}
		// And the AC(k) solver on the completed instance.
		shapeAC, _ := core.MatchCycleShape(ac3, true)
		viaAC, err := solver.CertainACk(context.Background(), ac3, shapeAC, completed)
		if err != nil {
			t.Fatal(err)
		}
		if viaAC != want {
			t.Errorf("seed %d: CertainACk on completion %v, want %v", seed, viaAC, want)
		}
	}
}

func TestLemma9SizeAndErrors(t *testing.T) {
	c3, ac3 := cq.Ck(3), cq.ACk(3)
	d := gen.RandomDB(c3, gen.Config{Embeddings: 2, Noise: 0, Domain: 2}, 1)
	completed, err := Lemma9(ac3, c3, d)
	if err != nil {
		t.Fatal(err)
	}
	domain := int64(len(d.ActiveDomain()))
	wantSk := new(big.Int).Exp(big.NewInt(domain), big.NewInt(3), nil)
	if got := int64(len(completed.FactsOf("S3"))); got != wantSk.Int64() {
		t.Errorf("S3 completion has %d facts, want %v", got, wantSk)
	}
	// q \ q' atom that is not all-key must be rejected.
	q := cq.MustParseQuery("R1(x1 | x2), R2(x2 | x1), T(x1 | x2)")
	if _, err := Lemma9(q, cq.Ck(2), d); err == nil {
		t.Error("non-all-key completion atom must be rejected")
	}
}

func TestHatValuationAllRegions(t *testing.T) {
	// q1's strong pair is (S, R); exercise every Venn region by checking
	// that θ̂ is total over vars(q1) and deterministic.
	r, err := NewTheorem2(cq.Q1())
	if err != nil {
		t.Fatal(err)
	}
	theta := cq.Valuation{"x": "1", "y": "2", "z": "3"}
	h1 := r.HatValuation(theta)
	h2 := r.HatValuation(theta)
	if len(h1) != 4 {
		t.Fatalf("θ̂ must bind all of u, x, y, z: %v", h1)
	}
	for v := range h1 {
		if h1[v] != h2[v] {
			t.Error("θ̂ must be deterministic")
		}
	}
	// Changing only z must change θ̂ on some variable (z is live in q1's
	// construction), and never change variables in F+∩G+ (mapped to 'd').
	h3 := r.HatValuation(cq.Valuation{"x": "1", "y": "2", "z": "9"})
	changed := false
	for v := range h1 {
		if h1[v] != h3[v] {
			changed = true
		}
	}
	if !changed {
		t.Error("θ̂ must depend on z")
	}
}

func TestApplyOnEmptyAndUnpurified(t *testing.T) {
	r, err := NewTheorem2(cq.Q1())
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Apply(db.New())
	if err != nil || out.Len() != 0 {
		t.Errorf("empty source: %v %v", out, err)
	}
	// An unpurified source (dangling S0 fact) is purified inside Apply.
	src := db.MustParse("R0(a | b), S0(b, z | a), S0(q, q | q)")
	out, err = r.Apply(src)
	if err != nil {
		t.Fatal(err)
	}
	// Only the coherent part contributes: 4 atoms × 1 valuation.
	if out.Len() != 4 {
		t.Errorf("image size = %d, want 4:\n%s", out.Len(), out)
	}
}
