package prob

import (
	"math/big"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/gen"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

func TestProbDBAdd(t *testing.T) {
	p := New()
	f1 := db.NewFact("R", 1, "a", "b")
	f2 := db.NewFact("R", 1, "a", "c")
	if err := p.Add(f1, rat(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(f2, rat(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(db.NewFact("R", 1, "a", "d"), rat(1, 10)); err == nil {
		t.Error("block exceeding mass 1 must be rejected")
	}
	if err := p.Add(db.NewFact("S", 1, "x"), rat(0, 1)); err == nil {
		t.Error("zero probability must be rejected")
	}
	if err := p.Add(db.NewFact("S", 1, "x"), rat(3, 2)); err == nil {
		t.Error("probability > 1 must be rejected")
	}
	if err := p.Add(f1, rat(1, 4)); err == nil {
		t.Error("duplicate fact must be rejected")
	}
	if got := p.Prob(f1); got.Cmp(rat(1, 2)) != 0 {
		t.Errorf("Prob = %v", got)
	}
	if got := p.Prob(db.NewFact("Z", 1, "q")); got.Sign() != 0 {
		t.Errorf("absent fact must have probability 0, got %v", got)
	}
	if got := p.BlockTotal(f1); got.Cmp(rat(1, 1)) != 0 {
		t.Errorf("BlockTotal = %v", got)
	}
}

func TestUniformAndCertainSubset(t *testing.T) {
	d := gen.ConferenceDB()
	p := Uniform(d)
	if got := p.Prob(db.NewFact("C", 2, "PODS", "2016", "Rome")); got.Cmp(rat(1, 2)) != 0 {
		t.Errorf("uniform prob = %v", got)
	}
	if got := p.Prob(db.NewFact("C", 2, "KDD", "2017", "Rome")); got.Cmp(rat(1, 1)) != 0 {
		t.Errorf("singleton block prob = %v", got)
	}
	// Every block of a uniform BID database sums to 1, so db′ = db.
	if !p.CertainSubset().Equal(d) {
		t.Error("uniform CertainSubset must equal the database")
	}
	// Drop a fact's mass below 1: its block leaves db′.
	p2 := New()
	p2.Add(db.NewFact("R", 1, "a", "b"), rat(1, 2))
	p2.Add(db.NewFact("S", 1, "c", "d"), rat(1, 1))
	cs := p2.CertainSubset()
	if cs.Len() != 1 || !cs.Has(db.NewFact("S", 1, "c", "d")) {
		t.Errorf("CertainSubset = %v", cs)
	}
}

func TestIsSafeCatalog(t *testing.T) {
	cases := []struct {
		q    cq.Query
		safe bool
	}{
		{cq.MustParseQuery("R(x | y)"), true},
		{cq.MustParseQuery("R(x | y), S(x | z)"), true},  // common key var x
		{cq.MustParseQuery("R(x | y), S(u | w)"), true},  // independent
		{cq.MustParseQuery("R(x | y), S(y | z)"), false}, // join on non-key
		{cq.Q0(), false},
		{cq.Ck(2), false},
		{cq.ACk(3), false},
		{cq.Q1(), false},
		{cq.ConferenceQuery(), true}, // C(x,y|'Rome'), R(x|'A'): common key var x
		{cq.MustParseQuery("R('a', 'b')"), true},
		{cq.Query{}, true},
		{cq.TerminalCyclesQuery(), false},
	}
	for _, c := range cases {
		if got := IsSafe(c.q); got != c.safe {
			t.Errorf("IsSafe(%s) = %v, want %v", c.q, got, c.safe)
		}
	}
	sj := cq.Query{Atoms: []cq.Atom{
		cq.NewAtom("R", 1, cq.Var("x"), cq.Var("y")),
		cq.NewAtom("R", 1, cq.Var("y"), cq.Var("x")),
	}}
	if IsSafe(sj) {
		t.Error("self-joins are out of scope for IsSafe")
	}
}

func TestProbabilitySingleAtom(t *testing.T) {
	// Pr(∃x∃y R(x,y)) on two independent blocks of mass 1/2 each:
	// 1 - (1/2)(1/2) = 3/4.
	p := New()
	p.Add(db.NewFact("R", 1, "a", "b"), rat(1, 2))
	p.Add(db.NewFact("R", 1, "c", "d"), rat(1, 2))
	q := cq.MustParseQuery("R(x | y)")
	got, err := Probability(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(rat(3, 4)) != 0 {
		t.Errorf("Pr = %v, want 3/4", got)
	}
	if bw := ProbabilityByWorlds(q, p); bw.Cmp(got) != 0 {
		t.Errorf("world enumeration gives %v", bw)
	}
}

func TestProbabilityConference(t *testing.T) {
	// Uniform over the Fig. 1 database: the query holds in 3 of 4 repairs.
	d := gen.ConferenceDB()
	q := cq.ConferenceQuery()
	p := Uniform(d)
	want := rat(3, 4)
	got, err := Probability(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Errorf("Pr = %v, want %v", got, want)
	}
	if bw := ProbabilityByWorlds(q, p); bw.Cmp(want) != 0 {
		t.Errorf("world enumeration = %v", bw)
	}
}

func TestProbabilityUnsafeRejected(t *testing.T) {
	p := Uniform(gen.Q0DB(2, 2, 2, 1))
	if _, err := Probability(cq.Q0(), p); err == nil {
		t.Error("q0 is unsafe; safe-plan evaluation must fail")
	}
}

// TestProbabilitySafeAgainstWorlds cross-checks the FP evaluator against
// exact world enumeration on random instances of safe queries.
func TestProbabilitySafeAgainstWorlds(t *testing.T) {
	queries := []cq.Query{
		cq.MustParseQuery("R(x | y)"),
		cq.MustParseQuery("R(x | y), S(x | z)"),
		cq.MustParseQuery("R(x | y), S(u | w)"),
		cq.ConferenceQuery(),
		cq.MustParseQuery("R('a', 'b')"),
	}
	for _, q := range queries {
		if !IsSafe(q) {
			t.Fatalf("%s should be safe", q)
		}
		for seed := int64(0); seed < 25; seed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 2, Domain: 2}, seed)
			p := Uniform(d)
			fast, err := Probability(q, p)
			if err != nil {
				t.Fatalf("%s seed %d: %v", q, seed, err)
			}
			slow := ProbabilityByWorlds(q, p)
			if fast.Cmp(slow) != 0 {
				t.Errorf("%s seed %d: safe plan %v, worlds %v on\n%s", q, seed, fast, slow, d)
			}
		}
	}
}

// TestProbabilityNonUniform exercises blocks with mass < 1.
func TestProbabilityNonUniform(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(x | z)")
	p := New()
	p.Add(db.NewFact("R", 1, "a", "b"), rat(1, 3))
	p.Add(db.NewFact("R", 1, "a", "c"), rat(1, 3))
	p.Add(db.NewFact("S", 1, "a", "d"), rat(1, 2))
	p.Add(db.NewFact("R", 1, "e", "f"), rat(1, 4))
	p.Add(db.NewFact("S", 1, "e", "g"), rat(2, 3))
	fast, err := Probability(q, p)
	if err != nil {
		t.Fatal(err)
	}
	slow := ProbabilityByWorlds(q, p)
	if fast.Cmp(slow) != 0 {
		t.Errorf("safe plan %v, worlds %v", fast, slow)
	}
	// Pr = 1 - (1 - (2/3)(1/2)) (1 - (1/4)(2/3)) = 1 - (2/3)(5/6) = 4/9.
	if fast.Cmp(rat(4, 9)) != 0 {
		t.Errorf("Pr = %v, want 4/9", fast)
	}
}

func TestCounting(t *testing.T) {
	d := gen.ConferenceDB()
	q := cq.ConferenceQuery()
	brute := CountSatisfyingRepairs(q, d)
	if brute.Cmp(big.NewInt(3)) != 0 {
		t.Errorf("♯CERTAINTY = %v, want 3 (Fig. 1)", brute)
	}
	viaU, err := CountViaUniform(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if viaU.Cmp(brute) != 0 {
		t.Errorf("uniform counting %v, brute %v", viaU, brute)
	}
	// Unsafe query: uniform counting fails, world-based ratio still exact.
	q0 := cq.Q0()
	d0 := gen.Q0DB(2, 2, 2, 3)
	if _, err := CountViaUniform(q0, d0); err == nil {
		t.Error("unsafe query must be rejected by CountViaUniform")
	}
	ratio := UniformProbability(q0, d0)
	count := CountSatisfyingRepairs(q0, d0)
	total := d0.NumRepairs()
	want := new(big.Rat).SetFrac(count, total)
	if ratio.Cmp(want) != 0 {
		t.Errorf("uniform Pr = %v, want ♯sat/♯repairs = %v", ratio, want)
	}
}

// TestProposition1 validates the bridge: Pr(q) = 1 on p ⟺ db′ is certain.
func TestProposition1(t *testing.T) {
	q := cq.ConferenceQuery()
	for seed := int64(0); seed < 20; seed++ {
		d := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 2, Domain: 2}, seed)
		p := Uniform(d)
		lhs := bruteCertain(q, p.CertainSubset())
		rhs := CertainViaProbability(q, p)
		if lhs != rhs {
			t.Errorf("seed %d: certainty(db′)=%v, Pr(q)=1 is %v", seed, lhs, rhs)
		}
	}
	// A block with mass < 1 must be excluded from db′ even when it could
	// satisfy q.
	p := New()
	p.Add(db.NewFact("C", 2, "PODS", "2016", "Rome"), rat(1, 2))
	p.Add(db.NewFact("R", 1, "PODS", "A"), rat(1, 1))
	if CertainViaProbability(q, p) {
		t.Error("Pr < 1 because the C block can be absent")
	}
	if bruteCertain(q, p.CertainSubset()) {
		t.Error("db′ lacks the C block, so not certain")
	}
}

// bruteCertain is a local brute-force certainty oracle (the solver package
// depends transitively on prob, so tests here cannot import it).
func bruteCertain(q cq.Query, d *db.DB) bool {
	certain := true
	d.EachRepair(func(r []db.Fact) bool {
		if !engine.EvalRepair(q, r) {
			certain = false
			return false
		}
		return true
	})
	return certain
}

// TestRandomBIDSafePlanAgainstWorlds: safe-plan evaluation matches world
// enumeration on random non-uniform BID databases.
func TestRandomBIDSafePlanAgainstWorlds(t *testing.T) {
	queries := []cq.Query{
		cq.MustParseQuery("R(x | y)"),
		cq.MustParseQuery("R(x | y), S(x | z)"),
		cq.ConferenceQuery(),
	}
	for _, q := range queries {
		for seed := int64(0); seed < 25; seed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 2, Domain: 2}, seed)
			p := RandomBID(d, seed*31)
			fast, err := Probability(q, p)
			if err != nil {
				t.Fatalf("%s seed %d: %v", q, seed, err)
			}
			slow := ProbabilityByWorlds(q, p)
			if fast.Cmp(slow) != 0 {
				t.Errorf("%s seed %d: safe plan %v, worlds %v\n%s", q, seed, fast, slow, p)
			}
			// Block masses are in (0, 1].
			for _, blk := range p.DB().Blocks() {
				total := p.BlockTotal(blk[0])
				if total.Sign() <= 0 || total.Cmp(big.NewRat(1, 1)) > 0 {
					t.Fatalf("block mass %v out of range", total)
				}
			}
		}
	}
}

// TestRandomBIDProposition1 validates Proposition 1 on non-uniform
// distributions: Pr(q) = 1 ⟺ db′ certain.
func TestRandomBIDProposition1(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(x | z)")
	for seed := int64(0); seed < 30; seed++ {
		d := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 1, Domain: 2}, seed)
		p := RandomBID(d, seed*17)
		lhs := bruteCertain(q, p.CertainSubset())
		rhs := ProbabilityByWorlds(q, p).Cmp(big.NewRat(1, 1)) == 0
		if lhs != rhs {
			t.Errorf("seed %d: certain(db′)=%v Pr=1 is %v\n%s", seed, lhs, rhs, p)
		}
	}
}

// TestCountSatisfyingDecomposed: the count through the finest shard
// decomposition agrees with plain enumeration and handles irrelevant
// relations and empty components.
func TestCountSatisfyingDecomposed(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(u | w)") // two components
	for seed := int64(0); seed < 25; seed++ {
		d := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 2, Domain: 2}, seed)
		// Add an irrelevant uncertain relation.
		d.Add(db.NewFact("T", 1, "k", "1"))
		d.Add(db.NewFact("T", 1, "k", "2"))
		want := CountSatisfyingRepairs(q, d)
		got := CountSatisfyingSharded(q, d)
		if got.Cmp(want) != 0 {
			t.Errorf("seed %d: decomposed=%v brute=%v", seed, got, want)
		}
	}
	// A query that never holds zeroes the count.
	empty := db.MustParse("T(k | 1), T(k | 2)")
	if got := CountSatisfyingSharded(q, empty); got.Sign() != 0 {
		t.Errorf("no satisfying repairs expected, got %v", got)
	}
	// The empty query holds in every repair.
	if got := CountSatisfyingSharded(cq.Query{}, empty); got.Cmp(empty.NumRepairs()) != 0 {
		t.Errorf("empty query: %v vs %v", got, empty.NumRepairs())
	}
}
