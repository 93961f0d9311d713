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
			cont, err := eachEmbeddingInterned(nil, q, d, func(v cq.Valuation) bool {
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
				_, err := EachEmbeddingCtx(ctx, q, d, func(cq.Valuation) bool { return true })
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
			got, err := purifyInterned(nil, q, d)
			if err != nil {
				t.Fatalf("db %d query %d: %v", di, qi, err)
			}
			if ref.Digest() != got.Digest() {
				t.Fatalf("db %d query %d (%v): purified digests diverge\nref:\n%sgot:\n%s", di, qi, q, ref, got)
			}
			gctx, err := PurifyCtx(context.Background(), q, d)
			if err != nil {
				t.Fatalf("db %d query %d: PurifyCtx: %v", di, qi, err)
			}
			if gctx.Digest() != ref.Digest() {
				t.Fatalf("db %d query %d: PurifyCtx diverged from reference", di, qi)
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
