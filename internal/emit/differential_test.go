package emit_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/emit"
	"github.com/cqa-go/certainty/internal/emit/sqleval"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/solver"
)

// foFamilies returns every certgen FO-class query family the differential
// harness covers: the paper's examples, the Theorem 6 safe families
// (including the cyclic-but-safe triangle), random acyclic FO queries, and
// the FO members of the exhaustive two-atom enumeration.
func foFamilies(t *testing.T) []cq.Query {
	t.Helper()
	out := []cq.Query{
		cq.ConferenceQuery(),
		// The classic acyclic-attack-graph path query (Theorem 1 route).
		cq.MustParseQuery("R(x | y), S(y | z)"),
		// Theorem 6 safe families (fo/safe_test.go shapes).
		cq.MustParseQuery("R(x | y)"),
		cq.MustParseQuery("R(x | y), S(x | z)"),
		cq.MustParseQuery("R(x | y), S(u | w)"),
		cq.MustParseQuery("R('a', 'b')"),
		cq.MustParseQuery("R(x | y, y)"),
		cq.MustParseQuery("R(x, y | z), S(x | w)"),
		// Cyclic hypergraph, safe: Theorem 6 via the common key variable.
		cq.MustParseQuery("R(w | x, y), S(w | y, z), T(w | z, x)"),
		// Constants in key and nonkey positions.
		cq.MustParseQuery("R(x | 'a'), S('b' | x)"),
	}
	for seed := int64(0); seed < 8; seed++ {
		q := gen.RandomAcyclicQuery(seed, 3)
		if isFO(q) {
			out = append(out, q)
		}
	}
	count := 0
	gen.EnumerateTwoAtomQueries(2, func(q cq.Query) {
		if isFO(q) && count < 12 {
			out = append(out, q)
			count++
		}
	})
	var fos []cq.Query
	for _, q := range out {
		if isFO(q) {
			fos = append(fos, q)
		} else {
			t.Fatalf("family %s is not FO-class", q)
		}
	}
	return fos
}

func isFO(q cq.Query) bool {
	cls, err := core.Classify(q)
	return err == nil && cls.Class == core.ClassFO
}

// TestDifferentialEmit is the harness the acceptance criteria name: for
// every FO-class certgen family × random snapshots, the native solver
// verdict, the emitted-SQL evaluation, and the Datalog fixpoint must agree
// exactly.
func TestDifferentialEmit(t *testing.T) {
	for _, q := range foFamilies(t) {
		q := q
		t.Run(q.String(), func(t *testing.T) {
			plan, err := solver.CompilePlan(q)
			if err != nil {
				t.Fatalf("CompilePlan: %v", err)
			}
			sqlProg, err := plan.EmitSQL()
			if err != nil {
				t.Fatalf("EmitSQL: %v", err)
			}
			dlProg, err := plan.EmitDatalog()
			if err != nil {
				t.Fatalf("EmitDatalog: %v", err)
			}
			for seed := int64(1); seed <= 6; seed++ {
				d := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 5, Domain: 3}, seed)
				sqlGot, err := sqleval.Eval(sqlProg.Text, d)
				if err != nil {
					t.Fatalf("seed %d: sqleval: %v\nprogram:\n%s", seed, err, sqlProg.Text)
				}
				dlGot, err := emit.EvalDatalog(dlProg.Text, d)
				if err != nil {
					t.Fatalf("seed %d: datalog eval: %v\nprogram:\n%s", seed, err, dlProg.Text)
				}
				native := nativeVerdict(t, plan, d)
				if sqlGot != native {
					t.Fatalf("seed %d: SQL verdict %v, native %v\ndb:\n%s\nprogram:\n%s",
						seed, sqlGot, native, dumpDB(d), sqlProg.Text)
				}
				if dlGot != native {
					t.Fatalf("seed %d: Datalog verdict %v, native %v\ndb:\n%s\nprogram:\n%s",
						seed, dlGot, native, dumpDB(d), dlProg.Text)
				}
			}
		})
	}
}

func nativeVerdict(t *testing.T, plan *solver.Plan, d *db.DB) bool {
	t.Helper()
	v, err := plan.SolveCtx(context.Background(), d, solver.Options{})
	if err != nil {
		t.Fatalf("SolveCtx: %v", err)
	}
	switch v.Outcome {
	case solver.OutcomeCertain:
		return true
	case solver.OutcomeNotCertain:
		return false
	default:
		t.Fatalf("native solve cut off: %v", v.Err)
		return false
	}
}

// TestEmitMatchesFoEval cross-checks against the fo package's reference
// evaluator directly, independent of the solver's execution machinery.
func TestEmitMatchesFoEval(t *testing.T) {
	for _, q := range foFamilies(t) {
		canon, _ := cq.Canonicalize(q)
		var phi fo.Formula
		var err error
		cls, cerr := core.Classify(canon)
		if cerr != nil {
			t.Fatalf("Classify(%s): %v", canon, cerr)
		}
		if cls.Graph != nil {
			phi, err = fo.RewriteAcyclic(canon)
		} else {
			phi, err = fo.RewriteSafe(canon)
		}
		if err != nil {
			t.Fatalf("rewrite(%s): %v", canon, err)
		}
		prog, err := emit.SQL(canon, phi, "test")
		if err != nil {
			t.Fatalf("emit.SQL(%s): %v", canon, err)
		}
		for seed := int64(10); seed < 14; seed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 1, Noise: 6, Domain: 3}, seed)
			want, err := fo.Eval(phi, d)
			if err != nil {
				t.Fatalf("fo.Eval: %v", err)
			}
			got, err := sqleval.Eval(prog.Text, d)
			if err != nil {
				t.Fatalf("sqleval: %v\n%s", err, prog.Text)
			}
			if got != want {
				t.Fatalf("query %s seed %d: SQL %v, fo.Eval %v\ndb:\n%s\nprogram:\n%s",
					canon, seed, got, want, dumpDB(d), prog.Text)
			}
		}
	}
}

// TestEmitMetamorphicShuffle pins canonicalization: shuffling the atom
// order of the input query must produce byte-identical programs, because
// the solver canonicalizes before emitting.
func TestEmitMetamorphicShuffle(t *testing.T) {
	for _, q := range foFamilies(t) {
		plan, err := solver.CompilePlan(q)
		if err != nil {
			t.Fatalf("CompilePlan(%s): %v", q, err)
		}
		baseSQL, err := plan.EmitSQL()
		if err != nil {
			t.Fatalf("EmitSQL(%s): %v", q, err)
		}
		baseDL, err := plan.EmitDatalog()
		if err != nil {
			t.Fatalf("EmitDatalog(%s): %v", q, err)
		}
		r := rand.New(rand.NewSource(42))
		for trial := 0; trial < 4; trial++ {
			shuf := cq.Query{Atoms: append([]cq.Atom(nil), q.Atoms...)}
			r.Shuffle(len(shuf.Atoms), func(i, j int) {
				shuf.Atoms[i], shuf.Atoms[j] = shuf.Atoms[j], shuf.Atoms[i]
			})
			plan2, err := solver.CompilePlan(shuf)
			if err != nil {
				t.Fatalf("CompilePlan(shuffled %s): %v", shuf, err)
			}
			gotSQL, err := plan2.EmitSQL()
			if err != nil {
				t.Fatalf("EmitSQL(shuffled %s): %v", shuf, err)
			}
			if gotSQL.Text != baseSQL.Text {
				t.Fatalf("query %s: shuffled atom order changed the emitted SQL\nbase:\n%s\nshuffled:\n%s",
					q, baseSQL.Text, gotSQL.Text)
			}
			gotDL, err := plan2.EmitDatalog()
			if err != nil {
				t.Fatalf("EmitDatalog(shuffled %s): %v", shuf, err)
			}
			if gotDL.Text != baseDL.Text {
				t.Fatalf("query %s: shuffled atom order changed the emitted Datalog", q)
			}
		}
	}
}

// TestEmitDeterministic pins byte-level determinism across repeated
// emission of the same plan.
func TestEmitDeterministic(t *testing.T) {
	q := cq.ConferenceQuery()
	plan, err := solver.CompilePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := plan.EmitSQL()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := plan.EmitSQL()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Text != s2.Text || s1.SchemaNotes != s2.SchemaNotes {
		t.Fatal("EmitSQL is not deterministic")
	}
	d1, err := plan.EmitDatalog()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := plan.EmitDatalog()
	if err != nil {
		t.Fatal(err)
	}
	if d1.Text != d2.Text {
		t.Fatal("EmitDatalog is not deterministic")
	}
}

// TestEmitNotEmittable checks the typed error for non-FO plans.
func TestEmitNotEmittable(t *testing.T) {
	plan, err := solver.CompilePlan(cq.Q1())
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.EmitSQL()
	var ne *solver.NotEmittableError
	if !errors.As(err, &ne) {
		t.Fatalf("want NotEmittableError, got %v", err)
	}
	if !errors.Is(err, solver.ErrNotEmittable) {
		t.Fatalf("want ErrNotEmittable in chain, got %v", err)
	}
	if ne.Classification.Class == core.ClassFO {
		t.Fatalf("classification should not be FO: %v", ne.Classification.Class)
	}
}

func dumpDB(d *db.DB) string {
	s := ""
	for _, f := range d.Facts() {
		s += fmt.Sprintf("%v\n", f)
	}
	return s
}
