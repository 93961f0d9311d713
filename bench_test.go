package certainty

// Benchmarks regenerating the paper's artifacts, one per experiment of
// DESIGN.md (E1–E9 have testing.B counterparts here; E10 is the frontier
// chart printed by cmd/certbench). The paper is a theory paper, so the
// quantities of interest are scaling *shapes*: the Theorem 1/3/4
// algorithms must scale polynomially while brute-force repair enumeration
// and the falsifying search on coNP-hard queries grow exponentially.

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/jointree"
	"github.com/cqa-go/certainty/internal/prob"
	"github.com/cqa-go/certainty/internal/reduction"
	"github.com/cqa-go/certainty/internal/solver"
)

// BenchmarkE1Conference: the Fig. 1 instance end to end (classify + solve).
func BenchmarkE1Conference(b *testing.B) {
	q := ConferenceQuery()
	d := ConferenceDB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := solver.SolveCtx(context.Background(), q, d, solver.Options{})
		if err != nil || v.Result.Certain {
			b.Fatal("unexpected result")
		}
	}
}

// BenchmarkE2AttackGraph: attack graph construction and classification of
// the Fig. 2 query.
func BenchmarkE2AttackGraph(b *testing.B) {
	q := Q1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cls, err := core.Classify(q)
		if err != nil || cls.Class != core.ClassCoNPComplete {
			b.Fatal("unexpected classification")
		}
	}
}

// BenchmarkE3Reduction: the Theorem 2 construction (polynomial) per input
// size.
func BenchmarkE3Reduction(b *testing.B) {
	red, err := reduction.NewTheorem2(Q1())
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 8, 16, 32} {
		d0 := gen.Q0DB(n, 2, 3, int64(n))
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := red.Apply(d0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3FalsifyingSearch: the exponential-worst-case search on q0 on
// Monotone-3SAT-encoded instances (the coNP side of the frontier). "sat"
// instances have falsifying repairs; "unsat" ones force an exhaustive
// certainty proof.
func BenchmarkE3FalsifyingSearch(b *testing.B) {
	q := Q0()
	for _, n := range []int{8, 12, 16} {
		for _, ratio := range []int{5, 8} {
			f := gen.RandomMonotoneSAT(n, ratio*n, 3, int64(n*100+ratio))
			d := gen.MonotoneSATQ0DB(f)
			name := fmt.Sprintf("sat/vars=%d", n)
			if ratio == 8 {
				name = fmt.Sprintf("unsat/vars=%d", n)
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := solver.CertainByFalsifying(context.Background(), q, d); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE4Terminal: the Theorem 3 polynomial algorithm vs brute force
// on the Fig. 4-style query — the shape comparison of the paper's central
// tractability result.
func BenchmarkE4Terminal(b *testing.B) {
	q := TerminalCyclesQuery()
	base := q.Without(0)
	for _, n := range []int{2, 4, 8, 16} {
		d := gen.RandomDB(base, gen.Config{Embeddings: n, Noise: 2, Domain: 2}, int64(n))
		b.Run(fmt.Sprintf("thm3/emb=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solver.CertainTerminal(context.Background(), base, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		if d.NumRepairs().Cmp(big.NewInt(100_000)) <= 0 {
			b.Run(fmt.Sprintf("brute/emb=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					solver.BruteForce(base, d)
				}
			})
		}
	}
}

// BenchmarkE5ACk: the Theorem 4 graph-marking algorithm across k and
// instance size; repairs grow doubly exponentially while the algorithm
// stays polynomial.
func BenchmarkE5ACk(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		q := ACk(k)
		shape, ok := core.MatchCycleShape(q, true)
		if !ok {
			b.Fatal("shape")
		}
		for _, comps := range []int{4, 16, 64} {
			d := gen.CycleDB(gen.CycleConfig{K: k, Components: comps, Width: 2, EncodeAll: true})
			b.Run(fmt.Sprintf("k=%d/comps=%d", k, comps), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := solver.CertainACk(context.Background(), q, shape, d); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE5Figure6: the exact Fig. 6 instance.
func BenchmarkE5Figure6(b *testing.B) {
	q := ACk(3)
	shape, _ := core.MatchCycleShape(q, true)
	d := Figure6DB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		certain, err := solver.CertainACk(context.Background(), q, shape, d)
		if err != nil || certain {
			b.Fatal("Fig. 6 must be falsifiable")
		}
	}
}

// BenchmarkE6Ck: direct C(k) decision vs the Lemma 9 completion route.
func BenchmarkE6Ck(b *testing.B) {
	for _, k := range []int{2, 3} {
		q := Ck(k)
		aq := ACk(k)
		shape, _ := core.MatchCycleShape(q, false)
		shapeA, _ := core.MatchCycleShape(aq, true)
		d := gen.RandomDB(q, gen.Config{Embeddings: 4, Noise: 2, Domain: 3}, int64(k))
		b.Run(fmt.Sprintf("direct/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solver.CertainCk(context.Background(), q, shape, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("lemma9/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				completed, err := reduction.Lemma9(aq, q, d)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := solver.CertainACk(context.Background(), aq, shapeA, completed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Rewriting: constructing and evaluating the certain FO
// rewriting (Theorem 1) vs brute force.
func BenchmarkE7Rewriting(b *testing.B) {
	q := MustParseQuery("R(x | y), S(y | z)")
	b.Run("construct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fo.RewriteAcyclic(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	phi, err := fo.RewriteAcyclic(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{5, 10, 20} {
		d := gen.RandomDB(q, gen.Config{Embeddings: n, Noise: n, Domain: n}, int64(n))
		b.Run(fmt.Sprintf("eval/emb=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fo.Eval(phi, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("recursion/emb=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solver.CertainFO(context.Background(), q, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		if d.NumRepairs().Cmp(big.NewInt(50_000)) <= 0 {
			b.Run(fmt.Sprintf("brute/emb=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					solver.BruteForce(q, d)
				}
			})
		}
	}
}

// BenchmarkE8Probability: safe-plan evaluation (FP) vs world enumeration
// (exponential) for PROBABILITY(q).
func BenchmarkE8Probability(b *testing.B) {
	q := ConferenceQuery()
	for _, n := range []int{2, 4, 8} {
		d := gen.RandomDB(q, gen.Config{Embeddings: n, Noise: 2, Domain: 3}, int64(n))
		p := prob.Uniform(d)
		b.Run(fmt.Sprintf("safeplan/emb=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prob.Probability(q, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		if d.NumBlocks() <= 16 {
			b.Run(fmt.Sprintf("worlds/emb=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					prob.ProbabilityByWorlds(q, p)
				}
			})
		}
	}
}

// BenchmarkE9Counting: ♯CERTAINTY by enumeration vs the uniform safe plan.
func BenchmarkE9Counting(b *testing.B) {
	q := ConferenceQuery()
	for _, n := range []int{2, 4, 6} {
		d := gen.RandomDB(q, gen.Config{Embeddings: n, Noise: 2, Domain: 3}, int64(7*n))
		b.Run(fmt.Sprintf("brute/emb=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prob.CountSatisfyingRepairs(q, d)
			}
		})
		b.Run(fmt.Sprintf("uniform/emb=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prob.CountViaUniform(q, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Microbenchmarks for the substrates.

func BenchmarkPurify(b *testing.B) {
	q := ACk(3)
	d := gen.CycleDB(gen.CycleConfig{K: 3, Components: 16, Width: 2, EncodeAll: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.Purify(q, d)
	}
}

func BenchmarkEvalEmbeddings(b *testing.B) {
	q := MustParseQuery("R(x | y), S(y | z), T(z | w)")
	d := gen.RandomDB(q, gen.Config{Embeddings: 50, Noise: 50, Domain: 20}, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.Eval(q, d)
	}
}

func BenchmarkJoinTree(b *testing.B) {
	q := TerminalCyclesQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := jointree.Build(q, jointree.TieBreakLex); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepairEnumeration(b *testing.B) {
	d := gen.RandomDB(Q0(), gen.Config{Embeddings: 6, Noise: 4, Domain: 3}, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count := 0
		d.EachRepair(func([]Fact) bool {
			count++
			return true
		})
	}
}

// BenchmarkClassifyScaling: the effective method's cost as the query grows
// (the paper notes attack graphs are computable in quadratic time).
func BenchmarkClassifyScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		q := gen.TerminalPairsQuery(n, true)
		b.Run(fmt.Sprintf("pairs=%d/atoms=%d", n, q.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Classify(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCertainAnswers: free-variable certain answers with the FO
// rewriting fast path vs per-candidate dispatch.
func BenchmarkCertainAnswers(b *testing.B) {
	q := MustParseQuery("R(x | y), S(y | z)")
	for _, n := range []int{5, 20} {
		d := gen.RandomDB(q, gen.Config{Embeddings: n, Noise: n, Domain: n}, int64(n))
		b.Run(fmt.Sprintf("emb=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CertainAnswers(context.Background(), q, []string{"x"}, d, SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11OpenCase: the exact search on the open-class query — the
// empirical side of Conjecture 1.
func BenchmarkE11OpenCase(b *testing.B) {
	q := gen.OpenCaseQuery()
	for _, n := range []int{8, 32} {
		d := gen.RandomDB(q, gen.Config{Embeddings: n, Noise: n, Domain: 1 + n/2}, int64(n))
		b.Run(fmt.Sprintf("emb=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solver.CertainByFalsifying(context.Background(), q, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12OrderingAblation: fail-first vs static block ordering.
func BenchmarkE12OrderingAblation(b *testing.B) {
	q := Q0()
	f := gen.RandomMonotoneSAT(8, 24, 2, 803)
	d := gen.MonotoneSATQ0DB(f)
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.FalsifyingRepair(context.Background(), q, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.FalsifyingRepairStatic(context.Background(), q, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSafeRewriting: Theorem 6 construction and evaluation on the
// cyclic-hypergraph safe query.
func BenchmarkSafeRewriting(b *testing.B) {
	q := MustParseQuery("R(w | x, y), S(w | y, z), T(w | z, x)")
	b.Run("construct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fo.RewriteSafe(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	phi, err := fo.RewriteSafe(q)
	if err != nil {
		b.Fatal(err)
	}
	d := gen.RandomDB(q, gen.Config{Embeddings: 10, Noise: 5, Domain: 5}, 1)
	b.Run("eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fo.Eval(phi, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompiledRewriting: interpreted vs compiled evaluation of the
// certain rewriting (the compiled form pays off on repeated evaluation).
func BenchmarkCompiledRewriting(b *testing.B) {
	q := MustParseQuery("R(x | y), S(y | z)")
	phi, err := fo.RewriteAcyclic(q)
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := fo.Compile(phi)
	if err != nil {
		b.Fatal(err)
	}
	d := gen.RandomDB(q, gen.Config{Embeddings: 10, Noise: 10, Domain: 10}, 7)
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fo.Eval(phi, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := compiled.Eval(d); err != nil {
				b.Fatal(err)
			}
		}
	})
}
