package certainty

// PR 3 performance benchmarks for the optimization layers added in that PR
// (the compiled FO program, the relation index views, the plan layer).
// cmd/certbench -json runs the same matrix and records it in
// BENCH_pr3.json; the seed and string-indexed columns recorded there are
// historical, their code paths now live only as test references.

import (
	"context"
	"fmt"
	"testing"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/solver"
)

var pr3FOScales = []int{8, 32, 128}

func pr3FOInstance(b testing.TB, n int) (cq.Query, *db.DB) {
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	d := gen.RandomDB(q, gen.Config{Embeddings: n, Noise: n, Domain: n}, int64(n))
	d.Interned() // warm the columnar view outside the timed region
	return q, d
}

// BenchmarkTerminalIndexed: Theorem 3 over block sets of the interned view
// (the name is kept for the recorded BENCH_*.json rows).
func BenchmarkTerminalIndexed(b *testing.B) {
	q := gen.TerminalPairsQuery(2, true)
	for _, emb := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("emb=%d", emb), func(b *testing.B) {
			d := gen.RandomDB(q, gen.Config{Embeddings: emb, Noise: 2, Domain: 3}, int64(emb))
			d.Interned()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.CertainTerminal(context.Background(), q, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkACkSequential: Theorem 4 graph marking over multi-component
// cycle databases.
func BenchmarkACkSequential(b *testing.B) {
	q := cq.ACk(3)
	shape, ok := core.MatchCycleShape(q, true)
	if !ok {
		b.Fatal("AC(3) shape match failed")
	}
	for _, comps := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("comps=%d", comps), func(b *testing.B) {
			d := gen.CycleDB(gen.CycleConfig{K: 3, Components: comps, Width: 2, EncodeAll: true})
			d.Interned()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.CertainACk(context.Background(), q, shape, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFalsifyingSearch: the coNP falsifying-repair search on
// Monotone-SAT-encoded q0 instances (hard by Theorem 2).
func BenchmarkFalsifyingSearch(b *testing.B) {
	q := cq.Q0()
	for _, vars := range []int{6, 9, 12} {
		b.Run(fmt.Sprintf("vars=%d", vars), func(b *testing.B) {
			f := gen.RandomMonotoneSAT(vars, 5*vars, 3, int64(100*vars))
			d := gen.MonotoneSATQ0DB(f)
			d.Interned()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.CertainByFalsifying(context.Background(), q, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolvePlan: end-to-end Solve through a compiled plan vs the
// per-call classify+dispatch path.
func BenchmarkSolvePerCall(b *testing.B) {
	q, d := pr3FOInstance(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SolveCtx(context.Background(), q, d, solver.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolvePlan(b *testing.B) {
	q, d := pr3FOInstance(b, 32)
	p, err := solver.CompilePlan(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveCtx(context.Background(), d, solver.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
