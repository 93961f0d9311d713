package solver

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
)

// verdictFingerprint renders everything observable about a verdict as one
// string, so the differential tests below can demand byte-identical results
// between the per-call path and the compiled-plan path.
func verdictFingerprint(t *testing.T, v Verdict) string {
	t.Helper()
	res, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatalf("marshal Result: %v", err)
	}
	ev, err := json.Marshal(v.Evidence)
	if err != nil {
		t.Fatalf("marshal Evidence: %v", err)
	}
	errStr := "<nil>"
	if v.Err != nil {
		errStr = v.Err.Error()
	}
	return fmt.Sprintf("outcome=%d result=%s err=%q evidence=%s", v.Outcome, res, errStr, ev)
}

// differentialCases covers every dispatched method: FO rewriting, the safe
// Theorem 6 rewriting, Theorem 3 terminal cycles, AC(k), C(k), the
// falsifying search on coNP queries, and the projection-simplified open
// case.
func differentialCases(t *testing.T) []struct {
	name string
	q    cq.Query
	dbs  []*db.DB
} {
	t.Helper()
	randoms := func(q cq.Query, cfg gen.Config, seeds ...int64) []*db.DB {
		out := make([]*db.DB, len(seeds))
		for i, s := range seeds {
			out[i] = gen.RandomDB(q, cfg, s)
		}
		return out
	}
	foQ := cq.MustParseQuery("R(x | y), S(y | z)")
	safeQ := cq.MustParseQuery("R(w | x, y), S(w | y, z), T(w | z, x)")
	termQ := gen.TerminalPairsQuery(2, true)
	ackQ := cq.ACk(3)
	ckQ := cq.Ck(2)
	falsQ := cq.Q0()
	openQ := gen.OpenCaseQuery()
	return []struct {
		name string
		q    cq.Query
		dbs  []*db.DB
	}{
		{"fo", foQ, randoms(foQ, gen.Config{Embeddings: 6, Noise: 4, Domain: 4}, 1, 2, 3)},
		{"safe-rewriting", safeQ, randoms(safeQ, gen.Config{Embeddings: 4, Noise: 3, Domain: 3}, 4, 5)},
		{"terminal", termQ, randoms(termQ, gen.Config{Embeddings: 2, Noise: 1, Domain: 2}, 6, 7)},
		{"ack", ackQ, []*db.DB{
			gen.CycleDB(gen.CycleConfig{K: 3, Components: 4, Width: 2, EncodeAll: true}),
			gen.CycleDB(gen.CycleConfig{K: 3, Components: 4, Width: 2}),
		}},
		{"ck", ckQ, randoms(ckQ, gen.Config{Embeddings: 3, Noise: 2, Domain: 3}, 8, 9)},
		{"falsifying", falsQ, randoms(falsQ, gen.Config{Embeddings: 4, Noise: 3, Domain: 3}, 10, 11, 12)},
		{"simplified-open-case", openQ, randoms(openQ, gen.Config{Embeddings: 3, Noise: 2, Domain: 2}, 13, 14)},
	}
}

// TestPlanMatchesSolveCtx: for every method, executing the compiled plan
// yields a byte-identical Verdict to the per-call SolveCtx path.
func TestPlanMatchesSolveCtx(t *testing.T) {
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			p, err := CompilePlan(tc.q)
			if err != nil {
				t.Fatalf("CompilePlan: %v", err)
			}
			for i, d := range tc.dbs {
				want, err := SolveCtx(context.Background(), tc.q, d, Options{})
				if err != nil {
					t.Fatalf("db %d: SolveCtx: %v", i, err)
				}
				got, err := p.SolveCtx(context.Background(), d, Options{})
				if err != nil {
					t.Fatalf("db %d: Plan.SolveCtx: %v", i, err)
				}
				w, g := verdictFingerprint(t, want), verdictFingerprint(t, got)
				if w != g {
					t.Fatalf("db %d: verdicts differ\n solve: %s\n plan:  %s", i, w, g)
				}
			}
		})
	}
}

// TestPlanMatchesSolve: the per-call and compiled-plan Results agree byte
// for byte, and the plan advertises the method the per-call solve used.
func TestPlanMatchesSolve(t *testing.T) {
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			p, err := CompilePlan(tc.q)
			if err != nil {
				t.Fatalf("CompilePlan: %v", err)
			}
			if p.Class != p.Classification().Class {
				t.Fatalf("Class %v disagrees with Classification %v", p.Class, p.Classification().Class)
			}
			for i, d := range tc.dbs {
				wantV, err := SolveCtx(context.Background(), tc.q, d, Options{})
				if err != nil {
					t.Fatalf("db %d: SolveCtx: %v", i, err)
				}
				gotV, err := p.SolveCtx(context.Background(), d, Options{})
				if err != nil {
					t.Fatalf("db %d: Plan.SolveCtx: %v", i, err)
				}
				want, got := wantV.Result, gotV.Result
				w, _ := json.Marshal(want)
				g, _ := json.Marshal(got)
				if string(w) != string(g) {
					t.Fatalf("db %d: results differ\n solve: %s\n plan:  %s", i, w, g)
				}
				if want.Method != p.Method {
					t.Fatalf("db %d: Solve used %v, plan advertises %v", i, want.Method, p.Method)
				}
			}
		})
	}
}

// TestIndexedFOMatchesBaseline: the indexed+pooled+compiled FO path returns
// exactly what the seed implementation (per-call block derivation, lazy
// shape memo) returns, over random instances.
func TestIndexedFOMatchesBaseline(t *testing.T) {
	queries := []cq.Query{
		cq.MustParseQuery("R(x | y), S(y | z)"),
		cq.MustParseQuery("R(x | y), S(y, a | z)"),
		cq.MustParseQuery("R(x | y), S(y | z), T(z | w)"),
	}
	for qi, q := range queries {
		for seed := int64(0); seed < 8; seed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 5, Noise: 4, Domain: 3}, seed)
			want, errW := CertainFOBaseline(q, d)
			got, errG := CertainFO(context.Background(), q, d)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("q%d seed %d: error mismatch %v vs %v", qi, seed, errW, errG)
			}
			if want != got {
				t.Fatalf("q%d seed %d: baseline %v, indexed %v", qi, seed, want, got)
			}
		}
	}
}

// TestCompileFORejectsCyclic: compilation fails exactly where the seed
// recursion failed.
func TestCompileFORejectsCyclic(t *testing.T) {
	if _, err := CompileFO(cq.Q0()); err == nil {
		t.Fatal("CompileFO must reject a cyclic attack graph")
	}
	if _, err := CompilePlan(cq.Query{}); err == nil {
		t.Log("empty query compiles (matches Classify's treatment)")
	}
}
