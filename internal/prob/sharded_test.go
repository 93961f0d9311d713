package prob

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
)

func shardedCases(t *testing.T) []struct {
	name string
	q    cq.Query
	d    *db.DB
} {
	t.Helper()
	joinQ := cq.MustParseQuery("R(x | y), S(y | z)")
	twoCompQ := cq.MustParseQuery("R(x | y), S(y | z), U(u | v)")
	selfQ := cq.MustParseQuery("R(x | y), R(y | z)")
	return []struct {
		name string
		q    cq.Query
		d    *db.DB
	}{
		{"join-chains", joinQ, db.MustParse(`
			R(a | v) R(a | v9) S(v | b)
			R(c | w) S(w | d) S(w | d2)
			S(lone | e)
			T(k | t1) T(k | t2)
		`)},
		{"two-components", twoCompQ, db.MustParse(`
			R(a | v) S(v | b)
			R(a2 | v2) S(v2 | b2)
			U(k | w) U(k | w2)
		`)},
		{"empty-relation", twoCompQ, db.MustParse(`R(a | v) S(v | b)`)},
		{"self-join", selfQ, db.MustParse(`R(a | b) R(b | c) R(d | e)`)},
		{"random", joinQ, gen.RandomDB(joinQ, gen.Config{Embeddings: 3, Noise: 3, Domain: 3}, 17)},
	}
}

// TestCountSatisfyingShardedMatches: the ∏ᵢNᵢ − ∏ᵢ(Nᵢ−sᵢ) convolution over
// the shard decomposition reproduces plain repair enumeration exactly.
func TestCountSatisfyingShardedMatches(t *testing.T) {
	for _, tc := range shardedCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want := CountSatisfyingRepairs(tc.q, tc.d)
			if got := CountSatisfyingSharded(tc.q, tc.d); got.Cmp(want) != 0 {
				t.Errorf("count %s, want %s", got, want)
			}
		})
	}
}

// TestUniformProbabilityShardedMatches: 1 − ∏ᵢ(1−pᵢ) per component and the
// product across components reproduce exact world enumeration.
func TestUniformProbabilityShardedMatches(t *testing.T) {
	for _, tc := range shardedCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want := UniformProbability(tc.q, tc.d)
			if got := UniformProbabilitySharded(tc.q, tc.d); got.Cmp(want) != 0 {
				t.Errorf("Pr %s, want %s", got.RatString(), want.RatString())
			}
		})
	}
}

// TestShardedCountShuffleProperty is the counting half of the satellite
// property test: component-preserving fact shuffles never change the
// repair count or the uniform probability.
func TestShardedCountShuffleProperty(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	for seed := int64(0); seed < 3; seed++ {
		d := gen.RandomDB(q, gen.Config{Embeddings: 3, Noise: 4, Domain: 3}, 300+seed)
		wantCount := CountSatisfyingRepairs(q, d)
		wantPr := UniformProbability(q, d)
		r := rand.New(rand.NewSource(seed*31 + 7))
		for trial := 0; trial < 3; trial++ {
			facts := append([]db.Fact(nil), d.Facts()...)
			r.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
			perm := db.MustFromFacts(facts...)
			if got := CountSatisfyingSharded(q, perm); got.Cmp(wantCount) != 0 {
				t.Errorf("seed %d trial %d: count %s, want %s", seed, trial, got, wantCount)
			}
			if got := UniformProbabilitySharded(q, perm); got.Cmp(wantPr) != 0 {
				t.Errorf("seed %d trial %d: Pr %s, want %s", seed, trial, got.RatString(), wantPr.RatString())
			}
		}
	}
}

// TestShardedCountSharedRelation: query components that share a relation
// read the same facts, so the decomposition merges them into one
// self-joining component. Mapping each relation to a single component
// would leave the other component without facts, and the combine would
// read that as "no repair satisfies it".
func TestShardedCountSharedRelation(t *testing.T) {
	d := db.MustParse(`R(a | b) R(a | c) R(c | d) S(b | e) S(b | f)`)
	cases := []struct {
		q     string
		count int64
		pr    *big.Rat
	}{
		{"R(x | y), R(u | v)", 4, big.NewRat(1, 1)},
		{"R(x | y), S(y | z), R(u | v)", 2, big.NewRat(1, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.q, func(t *testing.T) {
			q := cq.MustParseQuery(tc.q)
			if got := CountSatisfyingRepairs(q, d); got.Cmp(big.NewInt(tc.count)) != 0 {
				t.Fatalf("CountSatisfyingRepairs = %s, want %d", got, tc.count)
			}
			if got := UniformProbability(q, d); got.Cmp(tc.pr) != 0 {
				t.Fatalf("UniformProbability = %s, want %s", got.RatString(), tc.pr.RatString())
			}
			if got := CountSatisfyingSharded(q, d); got.Cmp(big.NewInt(tc.count)) != 0 {
				t.Errorf("CountSatisfyingSharded = %s, want %d", got, tc.count)
			}
			if got := UniformProbabilitySharded(q, d); got.Cmp(tc.pr) != 0 {
				t.Errorf("UniformProbabilitySharded = %s, want %s", got.RatString(), tc.pr.RatString())
			}
		})
	}
}
