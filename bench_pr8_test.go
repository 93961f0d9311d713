package certainty

// PR 8 performance benchmarks: the interned data plane — the same decisions
// over dense uint32 ids and columnar relations. cmd/certbench -json runs the
// same matrix and records it in BENCH_pr8.json next to the PR 5 baseline.

import (
	"context"
	"fmt"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/solver"
)

// BenchmarkFOInterned: the compiled FO program's interned schedule over
// block-offset probes with a pooled uint32 environment.
func BenchmarkFOInterned(b *testing.B) {
	for _, n := range pr3FOScales {
		b.Run(fmt.Sprintf("emb=%d", n), func(b *testing.B) {
			q, d := pr3FOInstance(b, n)
			d.Interned() // build the columnar view outside the timed region
			prog, err := solver.CompileFO(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prog.Certain(q, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var pr8EngineScales = []int{8, 32, 128}

func pr8EngineInstance(b testing.TB, n int) (cq.Query, *db.DB) {
	q := cq.MustParseQuery("R(x | y), S(y | z), T(z | w)")
	d := gen.RandomDB(q, gen.Config{Embeddings: n, Noise: n, Domain: n}, int64(n))
	d.Digest()
	return q, d
}

func benchEngineEnum(b *testing.B, each func(cq.Query, *db.DB, func(cq.Valuation) bool) bool) {
	for _, n := range pr8EngineScales {
		b.Run(fmt.Sprintf("emb=%d", n), func(b *testing.B) {
			q, d := pr8EngineInstance(b, n)
			d.Interned()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count := 0
				each(q, d, func(cq.Valuation) bool {
					count++
					return true
				})
				if count == 0 && n > 4 {
					b.Fatal("instance generated no embeddings")
				}
			}
		})
	}
}

// BenchmarkEngineEnumInterned enumerates every embedding of a three-atom
// chain: sorted-posting intersection over uint32 fact indices,
// slot-compiled valuations materialized only at yield.
func BenchmarkEngineEnumInterned(b *testing.B) {
	benchEngineEnum(b, engine.EachEmbedding)
}

// BenchmarkSafeRewritingInterned: the Theorem 6 safe rewriting of a 3-cycle
// join, evaluated through the compiled closure tree.
func BenchmarkSafeRewritingInterned(b *testing.B) {
	q := cq.MustParseQuery("R(w | x, y), S(w | y, z), T(w | z, x)")
	phi, err := fo.RewriteSafe(q)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := fo.Compile(phi)
	if err != nil {
		b.Fatal(err)
	}
	d := gen.RandomDB(q, gen.Config{Embeddings: 4, Noise: 3, Domain: 3}, 7)
	d.Digest()
	d.Interned()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Eval(d); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFOInternedAllocRegression pins the headline property of the interned
// data plane: a warm FO decision allocates NOTHING. The governor, the
// columnar view, and the scratch pools are set up outside the measured
// region — exactly the steady state of a server solving the same plan over
// a hosted database.
func TestFOInternedAllocRegression(t *testing.T) {
	n := pr3FOScales[len(pr3FOScales)-1]
	q, d := pr3FOInstance(t, n)
	prog, err := solver.CompileFO(q)
	if err != nil {
		t.Fatal(err)
	}
	d.Interned()
	g := govern.New(context.Background(), govern.Options{})
	defer g.Close()
	ctx := g.Attach()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := prog.CertainCtx(ctx, q, d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("interned FO path allocates %.1f/op, want 0", allocs)
	}
}

// TestEngineEvalInternedAllocRegression bounds the engine's boolean
// evaluation (the terminal/C(k) building block) on the interned plane. The
// Eval API compiles its query per call, so the floor is the slot-compile of
// a three-atom chain — a small constant independent of the data — while the
// search itself runs out of pooled scratch.
func TestEngineEvalInternedAllocRegression(t *testing.T) {
	q, d := pr8EngineInstance(t, 32)
	d.Interned()
	interned := testing.AllocsPerRun(50, func() {
		engine.Eval(q, d)
	})
	t.Logf("allocs/op: interned=%.0f", interned)
	const ceiling = 24 // query compile only; the search allocates nothing
	if interned > ceiling {
		t.Fatalf("interned engine Eval allocates %.0f/op, above the %d compile-only ceiling", interned, ceiling)
	}
}
