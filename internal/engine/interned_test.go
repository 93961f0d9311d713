package engine

import (
	"context"
	"fmt"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/govern"
)

// differentialQueries stresses the compiled argument kinds: chains, repeated
// variables within an atom (R(x | x)), constants present and absent, shared
// keys, and atoms whose signature mismatches the data.
func differentialQueries(t *testing.T) []cq.Query {
	t.Helper()
	var out []cq.Query
	for _, s := range []string{
		"R(x | y), S(y | z)",
		"R(x | x)",
		"R(x | y), S(y | x)",
		"R(x, y | z), S(z | w), T(w | x)",
		"R(c1 | y)",
		"R(nosuchconst | y), S(y | z)",
		"Q(x | y)", // relation absent from generated databases
		"R(x | y), R(y | z), R(z | w)",
		"S(x | y), S(y | y)",
	} {
		q, err := cq.ParseQuery(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		out = append(out, q)
	}
	out = append(out, cq.Query{}) // empty query
	return out
}

func differentialDBs(t *testing.T) []*db.DB {
	t.Helper()
	dbs := []*db.DB{db.New()}
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	for seed := int64(0); seed < 6; seed++ {
		dbs = append(dbs, gen.RandomDB(q, gen.Config{Embeddings: 6, Noise: 20, Domain: 8}, seed))
	}
	// A database with mismatched signatures for T and tight blocks.
	dbs = append(dbs, db.MustParse("R(a | b), R(a | c), S(b | a), S(b | b), T(a, b | c), T(a, b | d)"))
	return dbs
}

// TestInternedEmbeddingSequenceParity locks the strongest contract the
// interned plane offers: the exact embedding sequence — not just the set —
// matches the string-indexed reference (reference_test.go), for every query
// shape.
func TestInternedEmbeddingSequenceParity(t *testing.T) {
	queries := differentialQueries(t)
	for di, d := range differentialDBs(t) {
		for qi, q := range queries {
			var ref, got []string
			eachEmbeddingIndexed(nil, q, d, func(v cq.Valuation) bool {
				ref = append(ref, fmt.Sprint(v))
				return true
			})
			cont, err := eachEmbedding(nil, q, AllBlocks(d), func(v cq.Valuation) bool {
				got = append(got, fmt.Sprint(v))
				return true
			})
			if err != nil || !cont {
				t.Fatalf("db %d query %d: interned enumeration failed: %v", di, qi, err)
			}
			if len(ref) != len(got) {
				t.Fatalf("db %d query %d (%v): %d interned embeddings, want %d", di, qi, q, len(got), len(ref))
			}
			for i := range ref {
				if ref[i] != got[i] {
					t.Fatalf("db %d query %d (%v): embedding %d is %s, want %s", di, qi, q, i, got[i], ref[i])
				}
			}
			if Eval(q, d) != evalIndexed(q, d) {
				t.Fatalf("db %d query %d: Eval diverged", di, qi)
			}
		}
	}
}

// TestInternedGovernorStepParity pins the budget-observable behavior: both
// planes charge exactly one step per search node, so a run under any budget
// fails (or not) at the same point.
func TestInternedGovernorStepParity(t *testing.T) {
	queries := differentialQueries(t)
	for di, d := range differentialDBs(t) {
		for qi, q := range queries {
			steps := func(each func(context.Context) error) int64 {
				g := govern.New(context.Background(), govern.Options{})
				defer g.Close()
				if err := each(g.Attach()); err != nil {
					t.Fatalf("db %d query %d: %v", di, qi, err)
				}
				return g.Steps()
			}
			si := steps(func(ctx context.Context) error {
				_, err := eachEmbedding(govern.From(ctx), q, AllBlocks(d), func(cq.Valuation) bool { return true })
				return err
			})
			ss := steps(func(ctx context.Context) error {
				_, err := eachEmbeddingIndexed(govern.From(ctx), q, d, func(cq.Valuation) bool { return true })
				return err
			})
			if si != ss {
				t.Fatalf("db %d query %d (%v): interned charged %d steps, string reference %d", di, qi, q, si, ss)
			}
		}
	}
}

// TestInternedPurifyParity checks purification reaches the identical
// database (same digest, same fact order) on both planes.
func TestInternedPurifyParity(t *testing.T) {
	queries := differentialQueries(t)
	for di, d := range differentialDBs(t) {
		for qi, q := range queries {
			if q.Len() == 0 {
				continue // Purify of the empty query keeps everything; trivial
			}
			ref := purifyIndexed(q, d)
			got := Purify(q, d)
			if ref.Digest() != got.Digest() {
				t.Fatalf("db %d query %d (%v): purified digests diverge\nref:\n%sgot:\n%s", di, qi, q, ref, got)
			}
			s, err := AllBlocks(d).Purify(context.Background(), q)
			if err != nil {
				t.Fatalf("db %d query %d: BlockSet.Purify: %v", di, qi, err)
			}
			if s.restrict(d).Digest() != ref.Digest() {
				t.Fatalf("db %d query %d: BlockSet.Purify diverged from reference", di, qi)
			}
			if IsPurified(q, d) != (ref.Len() == d.Len()) {
				t.Fatalf("db %d query %d: IsPurified = %v with %d of %d facts kept", di, qi, IsPurified(q, d), ref.Len(), d.Len())
			}
		}
	}
}

// TestInternedEarlyStopParity checks yield-driven early termination returns
// the same result on both planes.
func TestInternedEarlyStopParity(t *testing.T) {
	d := differentialDBs(t)[1]
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	for stopAfter := 1; stopAfter <= 4; stopAfter++ {
		run := func(each func(cq.Query, *db.DB, func(cq.Valuation) bool) bool) (int, bool) {
			n := 0
			cont := each(q, d, func(cq.Valuation) bool {
				n++
				return n < stopAfter
			})
			return n, cont
		}
		ni, ci := run(EachEmbedding)
		ns, cs := run(func(q cq.Query, d *db.DB, yield func(cq.Valuation) bool) bool {
			cont, _ := eachEmbeddingIndexed(nil, q, d, yield)
			return cont
		})
		if ni != ns || ci != cs {
			t.Fatalf("stopAfter=%d: interned (%d, %v) vs string (%d, %v)", stopAfter, ni, ci, ns, cs)
		}
	}
}

// TestBlockSetMatchesRestrictedDB pins the block-set contract the
// polynomial procedures rely on: a search over a sub-instance given as a
// block set walks the same embeddings, in the same order and for the same
// governor steps, as a search over that sub-instance materialized as a
// database.
func TestBlockSetMatchesRestrictedDB(t *testing.T) {
	queries := differentialQueries(t)
	for di, d := range differentialDBs(t) {
		for pi, pq := range queries {
			s, err := purify(nil, pq, AllBlocks(d))
			if err != nil {
				t.Fatal(err)
			}
			sub := s.restrict(d)
			if s.numFacts() != sub.Len() || s.Empty() != (sub.Len() == 0) {
				t.Fatalf("db %d purifier %d: set holds %d facts, restricted db %d", di, pi, s.numFacts(), sub.Len())
			}
			for qi, q := range queries {
				run := func(set BlockSet) ([]string, int64) {
					g := govern.New(context.Background(), govern.Options{})
					defer g.Close()
					var seq []string
					if _, err := eachEmbedding(g, q, set, func(v cq.Valuation) bool {
						seq = append(seq, fmt.Sprint(v))
						return true
					}); err != nil {
						t.Fatal(err)
					}
					return seq, g.Steps()
				}
				got, gotSteps := run(s)
				want, wantSteps := run(AllBlocks(sub))
				if fmt.Sprint(got) != fmt.Sprint(want) || gotSteps != wantSteps {
					t.Fatalf("db %d purifier %d query %d: block set gives %v in %d steps, restricted db %v in %d",
						di, pi, qi, got, gotSteps, want, wantSteps)
				}
			}
		}
	}
}
