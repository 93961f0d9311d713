package solver

import (
	"context"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/govern"
)

// internedFOQueries stresses the compiled argument kinds of the interned
// schedule: chains (bound keys at deeper levels), constants in key and
// non-key positions, repeated variables within one atom (which must force
// the all-blocks scan), and constants absent from the data.
func internedFOQueries(t *testing.T) []cq.Query {
	t.Helper()
	var out []cq.Query
	for _, s := range []string{
		"R(x | y)",
		"R(x | y), S(y | z)",
		"R(x | y), S(y | z), T(z | w)",
		"R(x, x | y)",
		"R(x | y, y)",
		"R('c1' | y), S(y | z)",
		"R(x | 'c1'), S(x | y)",
		"R(x | y), S(y | 'nosuch')",
	} {
		q, err := cq.ParseQuery(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if _, err := CompileFO(q); err != nil {
			t.Fatalf("%q: not in the FO class: %v", s, err)
		}
		out = append(out, q)
	}
	return out
}

func internedFODBs(t *testing.T) []*db.DB {
	t.Helper()
	dbs := []*db.DB{db.New()}
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	for seed := int64(0); seed < 6; seed++ {
		dbs = append(dbs, gen.RandomDB(q, gen.Config{Embeddings: 5, Noise: 8, Domain: 4}, seed))
	}
	// Signature mismatches (R at arity 3, T with a 2-ary key) and tight
	// multi-fact blocks, plus the constants c1 used by the query set.
	dbs = append(dbs, db.MustParse("R(a, b | c), S(c1 | a), S(c1 | b), T(a, b | c1)"))
	dbs = append(dbs, db.MustParse("R(c1 | c1), R(a | c1), S(c1 | a), T(a | b)"))
	return dbs
}

// TestInternedFOVerdictParity: the compiled interned recursion decides
// exactly what the seed reference recursion (reference_test.go) decides,
// for every query shape and database.
func TestInternedFOVerdictParity(t *testing.T) {
	queries := internedFOQueries(t)
	for di, d := range internedFODBs(t) {
		for qi, q := range queries {
			p, err := CompileFO(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := CertainFOBaseline(q, d)
			if err != nil {
				t.Fatalf("db %d query %d: baseline: %v", di, qi, err)
			}
			got, err := p.certainInterned(govern.From(context.Background()), q, d)
			if err != nil {
				t.Fatalf("db %d query %d: interned: %v", di, qi, err)
			}
			if want != got {
				t.Fatalf("db %d query %d (%v): interned=%v baseline=%v\ndb:\n%s", di, qi, q, got, want, d)
			}
			perCall, err := CertainFO(q, d)
			if err != nil {
				t.Fatalf("db %d query %d: CertainFO: %v", di, qi, err)
			}
			if perCall != want {
				t.Fatalf("db %d query %d: CertainFO=%v baseline=%v", di, qi, perCall, want)
			}
		}
	}
}

// TestInternedFOGovernorStepParity pins the budget-observable behavior: the
// compiled program and the seed reference enter the same search nodes, so
// they charge identical governor step counts — a run under any budget fails
// (or not) at the same point.
func TestInternedFOGovernorStepParity(t *testing.T) {
	queries := internedFOQueries(t)
	for di, d := range internedFODBs(t) {
		for qi, q := range queries {
			p, err := CompileFO(q)
			if err != nil {
				t.Fatal(err)
			}
			steps := func(certain func(context.Context) (bool, error)) int64 {
				g := govern.New(context.Background(), govern.Options{})
				defer g.Close()
				if _, err := certain(g.Attach()); err != nil {
					t.Fatalf("db %d query %d: %v", di, qi, err)
				}
				return g.Steps()
			}
			si := steps(func(ctx context.Context) (bool, error) { return p.CertainCtx(ctx, q, d) })
			ss := steps(func(ctx context.Context) (bool, error) { return CertainFOBaselineCtx(ctx, q, d) })
			if si != ss {
				t.Fatalf("db %d query %d (%v): interned charged %d steps, seed reference %d", di, qi, q, si, ss)
			}
		}
	}
}

// TestInternedFOBudgetCutoffParity: under a tight budget the compiled
// program and the seed reference return the same verdict and the same
// cutoff.
func TestInternedFOBudgetCutoffParity(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	d := gen.RandomDB(q, gen.Config{Embeddings: 6, Noise: 10, Domain: 4}, 42)
	p, err := CompileFO(q)
	if err != nil {
		t.Fatal(err)
	}
	for budget := int64(1); budget <= 8; budget++ {
		run := func(certain func(context.Context) (bool, error)) (bool, error) {
			g := govern.New(context.Background(), govern.Options{Budget: budget})
			defer g.Close()
			return certain(g.Attach())
		}
		iv, ierr := run(func(ctx context.Context) (bool, error) { return p.CertainCtx(ctx, q, d) })
		sv, serr := run(func(ctx context.Context) (bool, error) { return CertainFOBaselineCtx(ctx, q, d) })
		if iv != sv || (ierr == nil) != (serr == nil) {
			t.Fatalf("budget %d: interned (%v, %v) vs seed reference (%v, %v)", budget, iv, ierr, sv, serr)
		}
	}
}
