package solver

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/obs"
)

// findSpan returns the first span with the given name, or nil.
func findSpan(recs []obs.SpanRecord, name string) *obs.SpanRecord {
	for i := range recs {
		if recs[i].Name == name {
			return &recs[i]
		}
	}
	return nil
}

func attr(r *obs.SpanRecord, key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestSpanTreePerFamily runs one traced solve per paper family — FO
// (Theorem 1), terminal cycles in P (Theorem 3), AC(k) (Theorem 4), and the
// coNP-hard falsifying search (Theorem 2) — and asserts the recorded span
// tree: a classify span and the family's eval span parented under the solve
// root, non-zero durations, and completion order (children recorded before
// their parent).
func TestSpanTreePerFamily(t *testing.T) {
	ackQ := cq.ACk(3)
	terminalQ := cq.TerminalCyclesQuery()
	cases := []struct {
		name     string
		q        cq.Query
		d        *db.DB
		evalSpan string
		class    string
	}{
		{
			name:     "fo",
			q:        cq.MustParseQuery("R(x | y)"),
			d:        db.MustParse("R(a | b), R(a | c)"),
			evalSpan: "eval/fo-rewriting",
			class:    "fo",
		},
		{
			name:     "terminal",
			q:        terminalQ,
			d:        gen.RandomDB(terminalQ, gen.Config{Embeddings: 3, Noise: 2, Domain: 3}, 1),
			evalSpan: "eval/terminal",
			class:    "ptime-terminal",
		},
		{
			name:     "ack",
			q:        ackQ,
			d:        gen.RandomDB(ackQ, gen.Config{Embeddings: 3, Noise: 2, Domain: 3}, 1),
			evalSpan: "eval/ack-marking",
			class:    "ptime-ack",
		},
		{
			name:     "conp",
			q:        cq.Q0(),
			d:        oddRingDB(5),
			evalSpan: "eval/falsifying-search",
			class:    "conp-complete",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTracer(obs.TracerOptions{})
			ctx := obs.WithTracer(context.Background(), tr)
			v, err := SolveCtx(ctx, tc.q, tc.d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if v.Outcome == OutcomeUnknown {
				t.Fatalf("unlimited solve came back unknown: %+v", v)
			}
			recs := tr.Snapshot()
			root := findSpan(recs, "solve")
			if root == nil {
				t.Fatalf("no solve root span in %v", recs)
			}
			if root.ParentID != 0 {
				t.Fatalf("solve root has parent %d", root.ParentID)
			}
			if got := attr(root, "class"); got != tc.class {
				t.Errorf("root class attr = %q, want %q", got, tc.class)
			}
			if attr(root, "steps") == "" {
				t.Error("root span must carry the governor step count")
			}
			for _, name := range []string{"classify", tc.evalSpan} {
				sp := findSpan(recs, name)
				if sp == nil {
					t.Fatalf("span %q missing; recorded %s", name, obs.FormatTree(recs))
				}
				if sp.ParentID != root.ID {
					t.Errorf("%q parent = %d, want solve root %d", name, sp.ParentID, root.ID)
				}
				if sp.Duration <= 0 {
					t.Errorf("%q duration = %v, want > 0", name, sp.Duration)
				}
				if sp.Start.Before(root.Start) {
					t.Errorf("%q starts before its parent", name)
				}
			}
			// The ring records spans at End: both phases complete before the
			// root, so the root span is the last record.
			if recs[len(recs)-1].Name != "solve" {
				t.Errorf("last recorded span = %q, want the solve root", recs[len(recs)-1].Name)
			}
			ci, ei := -1, -1
			for i, r := range recs {
				switch r.Name {
				case "classify":
					ci = i
				case tc.evalSpan:
					ei = i
				}
			}
			if ci > ei {
				t.Errorf("classify recorded after %s", tc.evalSpan)
			}
		})
	}
}

// TestSpanTreeDegradedSolve: a budget-cutoff coNP solve records the
// degrade/sample span as a child of the root, after the cut-off eval span.
func TestSpanTreeDegradedSolve(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{})
	ctx := obs.WithTracer(context.Background(), tr)
	v, err := SolveCtx(ctx, cq.Q0(), oddRingDB(21), Options{Budget: 60, DegradeSamples: 10, SampleSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome == OutcomeCertain {
		t.Fatalf("budget-60 solve over a 21-ring cannot conclude certain: %+v", v)
	}
	recs := tr.Snapshot()
	root := findSpan(recs, "solve")
	eval := findSpan(recs, "eval/falsifying-search")
	sample := findSpan(recs, "degrade/sample")
	if root == nil || eval == nil || sample == nil {
		t.Fatalf("missing spans in\n%s", obs.FormatTree(recs))
	}
	if sample.ParentID != root.ID {
		t.Errorf("degrade/sample parent = %d, want solve root %d", sample.ParentID, root.ID)
	}
	if sample.Start.Before(eval.Start) {
		t.Error("sampling must start after the exact search")
	}
	if attr(sample, "samples") == "" {
		t.Error("degrade/sample span must carry the sample count")
	}
}

// TestCompiledPlanSpanTree: the compiled-plan path records the same tree
// minus the classify span (paid at compile time), with a plan=compiled
// attribute on the root.
func TestCompiledPlanSpanTree(t *testing.T) {
	q := cq.MustParseQuery("R(x | y)")
	p, err := CompilePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.TracerOptions{})
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := p.SolveCtx(ctx, db.MustParse("R(a | b), R(a | c)"), Options{}); err != nil {
		t.Fatal(err)
	}
	recs := tr.Snapshot()
	root := findSpan(recs, "solve")
	if root == nil || attr(root, "plan") != "compiled" {
		t.Fatalf("compiled root span missing plan attribute:\n%s", obs.FormatTree(recs))
	}
	if findSpan(recs, "classify") != nil {
		t.Error("compiled path must not re-classify")
	}
	if sp := findSpan(recs, "eval/fo-rewriting"); sp == nil || sp.ParentID != root.ID {
		t.Errorf("eval span missing or mis-parented:\n%s", obs.FormatTree(recs))
	}
}

// TestUntracedSolveRecordsNothing: without a tracer on the context, a solve
// records no spans anywhere — a tracer that exists but is not attached to
// the solve's context stays empty.
func TestUntracedSolveRecordsNothing(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{})
	_ = obs.WithTracer(context.Background(), tr) // attached to a context we don't solve on
	v, err := SolveCtx(context.Background(), cq.MustParseQuery("R(x | y)"), db.MustParse("R(a | b)"), Options{})
	if err != nil || v.Outcome == OutcomeUnknown {
		t.Fatalf("solve failed: %v %+v", err, v)
	}
	if got := tr.Snapshot(); len(got) != 0 {
		t.Fatalf("unattached tracer recorded %d spans", len(got))
	}
}

// TestDisabledTracingAddsNoAllocations locks the acceptance criterion that
// the tracing calls on the solve hot path are free when no tracer rides the
// context: the exact call shape SolveCtx makes per solve — root span, phase
// spans, attributes, ends — performs zero allocations.
func TestDisabledTracingAddsNoAllocations(t *testing.T) {
	base := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx, root := obs.StartSpan(base, "solve")
		_, csp := obs.StartSpan(ctx, "classify")
		csp.End()
		ectx, esp := obs.StartSpan(ctx, "eval/fo-rewriting")
		esp.SetInt("steps", 17)
		esp.End()
		_, dsp := obs.StartSpan(ectx, "degrade/sample")
		dsp.End()
		root.SetAttr("class", "fo")
		root.SetAttr("method", "fo-rewriting")
		root.SetAttr("outcome", "certain")
		root.SetInt("steps", 17)
		root.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per solve, want 0", allocs)
	}
}

// TestDecomposeSpanDeltaCounts: the shard/decompose span of a memoized
// re-solve says how much of the partition the sync touched. On a
// 16-component chain database the first solve builds all 32 blocks into 16
// components; after a one-block toggle the re-solve touches that block and
// rebuilds its one component.
func TestDecomposeSpanDeltaCounts(t *testing.T) {
	var text strings.Builder
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&text, "R(a%d | b%d) R(a%d | x%d) S(b%d | c%d) S(b%d | e%d)\n", i, i, i, i, i, i, i, i)
	}
	d := db.MustParse(text.String())
	p, err := CompilePlan(cq.MustParseQuery("R(x | y), S(y | z)"))
	if err != nil {
		t.Fatal(err)
	}
	memo := NewShardMemo(0, nil)
	decompose := func() *obs.SpanRecord {
		t.Helper()
		tr := obs.NewTracer(obs.TracerOptions{})
		if _, _, err := p.SolveShardedMemo(obs.WithTracer(context.Background(), tr), d, Options{}, memo); err != nil {
			t.Fatal(err)
		}
		recs := tr.Snapshot()
		sp := findSpan(recs, "shard/decompose")
		if sp == nil {
			t.Fatalf("no shard/decompose span in\n%s", obs.FormatTree(recs))
		}
		return sp
	}
	for _, step := range []struct {
		name             string
		edit             func()
		touched, rebuilt string
	}{
		{"cold", func() {}, "32", "16"},
		{"toggle on", func() {
			if err := d.Add(db.Fact{Rel: "S", KeyLen: 1, Args: []string{"b0", "ctoggle"}}); err != nil {
				t.Fatal(err)
			}
		}, "1", "1"},
		{"toggle off", func() { d.Remove(db.Fact{Rel: "S", KeyLen: 1, Args: []string{"b0", "ctoggle"}}) }, "1", "1"},
		{"unchanged", func() {}, "0", "0"},
	} {
		step.edit()
		sp := decompose()
		if got := attr(sp, "touched_blocks"); got != step.touched {
			t.Errorf("%s: touched_blocks = %q, want %s", step.name, got, step.touched)
		}
		if got := attr(sp, "rebuilt"); got != step.rebuilt {
			t.Errorf("%s: rebuilt = %q, want %s", step.name, got, step.rebuilt)
		}
		if got := attr(sp, "shards"); got != "16" {
			t.Errorf("%s: shards = %q, want 16", step.name, got)
		}
	}
}
