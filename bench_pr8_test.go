package certainty

// PR 8 performance benchmarks: the interned data plane — the same decisions
// over dense uint32 ids and columnar relations. cmd/certbench -json runs the
// same matrix and records it in BENCH_pr8.json next to the PR 5 baseline.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/server"
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
				if _, err := prog.Certain(context.Background(), q, d); err != nil {
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
	d.Interned()
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
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
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
		if _, err := prog.Certain(ctx, q, d); err != nil {
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
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
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

// warmAllocs measures the allocations of one warm decision: the columnar
// view is built and a governor attached outside the measured region, as
// for a server re-solving a plan over a hosted database.
func warmAllocs(t *testing.T, d *db.DB, decide func(context.Context) (bool, error)) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d.Interned()
	g := govern.New(context.Background(), govern.Options{})
	defer g.Close()
	ctx := g.Attach()
	return testing.AllocsPerRun(50, func() {
		if _, err := decide(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTerminalAllocRegression pins Theorem 3 on the compiled plan: the
// plan's program carries the unattacked-atom order and the base case's
// 2-cycles and key positions, so a warm solve does no attack-graph or
// cycle work, substitutes no string valuation, and purifies once per leaf
// of the Lemma 8 recursion over block sets of the one interned view. What
// remains is mostly the leaf's purification, partitions and evaluation.
func TestTerminalAllocRegression(t *testing.T) {
	q := gen.TerminalPairsQuery(2, true)
	d := gen.RandomDB(q, gen.Config{Embeddings: 8, Noise: 2, Domain: 3}, 8) // BenchmarkTerminalIndexed/emb=8
	p, err := solver.CompilePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != solver.MethodTerminal {
		t.Fatalf("plan method %v, want %v", p.Method, solver.MethodTerminal)
	}
	allocs := warmAllocs(t, d, func(ctx context.Context) (bool, error) {
		v, err := p.SolveCtx(ctx, d, solver.Options{})
		return v.Result.Certain, err
	})
	t.Logf("allocs/op: %.0f", allocs)
	const ceiling = 900
	if allocs > ceiling {
		t.Fatalf("terminal plan allocates %.0f/op, above the %d ceiling", allocs, ceiling)
	}
}

// TestACkAllocRegression pins Theorem 4 on the 8-component AC(3) cycle
// database: purification is a block-set fixpoint and the fact graph reads
// interned columns.
func TestACkAllocRegression(t *testing.T) {
	q := cq.ACk(3)
	shape, ok := core.MatchCycleShape(q, true)
	if !ok {
		t.Fatal("AC(3) shape match failed")
	}
	d := gen.CycleDB(gen.CycleConfig{K: 3, Components: 8, Width: 2, EncodeAll: true})
	allocs := warmAllocs(t, d, func(ctx context.Context) (bool, error) { return solver.CertainACk(ctx, q, shape, d) })
	t.Logf("allocs/op: %.0f", allocs)
	const ceiling = 1150
	if allocs > ceiling {
		t.Fatalf("CertainACk allocates %.0f/op, above the %d ceiling", allocs, ceiling)
	}
}

// TestCkAllocRegression pins Corollary 1 on the BenchmarkE6Ck/direct/k=3
// instance.
func TestCkAllocRegression(t *testing.T) {
	q := cq.Ck(3)
	shape, ok := core.MatchCycleShape(q, false)
	if !ok {
		t.Fatal("C(3) shape match failed")
	}
	d := gen.RandomDB(q, gen.Config{Embeddings: 4, Noise: 2, Domain: 3}, 3)
	allocs := warmAllocs(t, d, func(ctx context.Context) (bool, error) { return solver.CertainCk(ctx, q, shape, d) })
	t.Logf("allocs/op: %.0f", allocs)
	const ceiling = 55
	if allocs > ceiling {
		t.Fatalf("CertainCk allocates %.0f/op, above the %d ceiling", allocs, ceiling)
	}
}

// TestDeltaResolveAllocRegression pins delta re-solve on the hosted
// benchmark's instance: 1,000 width-2 C(3) components plus 200 facts of an
// unrelated relation. Each step inserts a fresh R1 fact in place or deletes
// the one inserted before, and SolveShardedMemo syncs the memo's kept
// partition, so it re-links, fingerprints and builds only the component
// the step touched. An insert solves that shard; a delete restores content
// whose outcome is memoized, so it solves nothing. Decomposing the whole
// database on every re-solve made about 238k allocations per step.
func TestDeltaResolveAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	q := cq.Ck(3)
	d := gen.CycleDB(gen.CycleConfig{K: 3, Components: 1000, Width: 2, SkipSk: true})
	for _, f := range gen.RandomDB(cq.MustParseQuery("U(x | y)"), gen.Config{Noise: 200, Domain: 150}, 1).Facts() {
		if err := d.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	p, err := solver.CompilePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	memo := solver.NewShardMemo(0, nil)
	if _, _, err := p.SolveShardedMemo(ctx, d, solver.Options{}, memo); err != nil {
		t.Fatal(err)
	}
	var toggle db.Fact
	present, fresh := false, 0
	allocs := testing.AllocsPerRun(20, func() {
		want := solver.DeltaReport{ShardsReused: 1000}
		if present {
			d.Remove(toggle)
		} else {
			fresh++
			toggle = db.Fact{Rel: "R1", KeyLen: 1, Args: []string{"v0_0_0", "toggle" + strconv.Itoa(fresh)}}
			if err := d.Add(toggle); err != nil {
				t.Fatal(err)
			}
			want = solver.DeltaReport{ShardsReused: 999, ShardsRecomputed: 1}
		}
		present = !present
		_, rep, err := p.SolveShardedMemo(ctx, d, solver.Options{}, memo)
		if err != nil {
			t.Fatal(err)
		}
		if rep != want {
			t.Fatalf("report %+v, want %+v", rep, want)
		}
	})
	t.Logf("allocs/step: %.0f", allocs)
	const ceiling = 5000
	if allocs > ceiling {
		t.Fatalf("delta re-solve allocates %.0f per step, above the %d ceiling", allocs, ceiling)
	}
}

// hostedResolve is the hosted benchmark's C(3) instance at a given number
// of width-2 components, plus 200 facts of an unrelated relation, with a
// compiled plan and a warm shard memo. Each write goes through Clone, as
// the WAL store's commits do, and either inserts a fresh R1 fact or
// deletes the one inserted before.
type hostedResolve struct {
	p       *solver.Plan
	rels    []string // the query's relations, sorted and distinct
	memo    *solver.ShardMemo
	d       *db.DB
	toggle  db.Fact
	present bool
	fresh   int
	key     string // the last verdict key
}

func newHostedResolve(tb testing.TB, comps int) *hostedResolve {
	tb.Helper()
	q := cq.Ck(3)
	d := gen.CycleDB(gen.CycleConfig{K: 3, Components: comps, Width: 2, SkipSk: true})
	for _, f := range gen.RandomDB(cq.MustParseQuery("U(x | y)"), gen.Config{Noise: 200, Domain: 150}, 1).Facts() {
		if err := d.Add(f); err != nil {
			tb.Fatal(err)
		}
	}
	p, err := solver.CompilePlan(q)
	if err != nil {
		tb.Fatal(err)
	}
	h := &hostedResolve{p: p, memo: solver.NewShardMemo(0, nil), d: d}
	for _, a := range q.Atoms {
		h.rels = append(h.rels, a.Rel)
	}
	slices.Sort(h.rels)
	h.rels = slices.Compact(h.rels)
	if _, _, err := p.SolveShardedMemo(context.Background(), d, solver.Options{}, h.memo); err != nil {
		tb.Fatal(err)
	}
	return h
}

// write publishes the next version, a clone with the toggle flipped, and
// returns the report a re-solve must give: an insert of a fresh fact
// recomputes its component, and its undo finds the component's old
// outcome memoized.
func (h *hostedResolve) write(tb testing.TB, comps int) solver.DeltaReport {
	return h.writeIn(tb, comps, "v0_0_0")
}

// writeIn is write with the toggle inserted into block key of R1.
func (h *hostedResolve) writeIn(tb testing.TB, comps int, key string) solver.DeltaReport {
	next := h.d.Clone()
	want := solver.DeltaReport{ShardsReused: comps}
	if h.present {
		next.Remove(h.toggle)
	} else {
		h.fresh++
		h.toggle = db.Fact{Rel: "R1", KeyLen: 1, Args: []string{key, "toggle" + strconv.Itoa(h.fresh)}}
		if err := next.Add(h.toggle); err != nil {
			tb.Fatal(err)
		}
		want = solver.DeltaReport{ShardsReused: comps - 1, ShardsRecomputed: 1}
	}
	h.d, h.present = next, !h.present
	return want
}

// resolve is the read side of a hosted write as certd runs it: the verdict
// key — the plan key and the versions of the query's relations — then the
// memoized re-solve.
func (h *hostedResolve) resolve(tb testing.TB) solver.DeltaReport {
	key := append(make([]byte, 0, len(h.p.Key)+8*len(h.rels)), h.p.Key...)
	for _, rel := range h.rels {
		key = append(key, 0)
		key = strconv.AppendUint(key, h.d.RelationVersion(rel), 10)
	}
	h.key = string(key)
	_, rep, err := h.p.SolveShardedMemo(context.Background(), h.d, solver.Options{}, h.memo)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// BenchmarkHostedResolve times the read side of one hosted write on the
// hosted C(3) instance: the verdict key plus SolveShardedMemo, after a
// store-style write that runs outside the timer. Writes alternate between
// inserting a fresh fact and deleting it.
func BenchmarkHostedResolve(b *testing.B) {
	for _, comps := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("comps=%d", comps), func(b *testing.B) {
			h := newHostedResolve(b, comps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h.write(b, comps)
				b.StartTimer()
				h.resolve(b)
			}
		})
	}
}

// BenchmarkHostedWrite times the write side of one hosted write on the
// hosted C(3) instance: the store-style write (Clone plus one R1 toggle
// insert or delete), with the re-solve that reads it outside the timer.
func BenchmarkHostedWrite(b *testing.B) {
	for _, comps := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("comps=%d", comps), func(b *testing.B) {
			h := newHostedResolve(b, comps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.write(b, comps)
				b.StopTimer()
				h.resolve(b)
				b.StartTimer()
			}
		})
	}
}

// TestHostedWriteScaleAllocRegression pins the write side of a hosted
// write as flat in the database's size: on the hosted C(3) instance at
// 1,000 and at 4,000 components, Clone plus one R1 toggle insert or delete
// must allocate the same to within 10% in allocations and 25% in bytes, and
// under 16 KB. A write that copies a relation's facts, block map or block
// order, or the database's fact list, grows with the database; when writes
// did, one allocated 1.92 MB at 1,000 components and 7.59 MB at 4,000. A
// write still copies its block's trie path, two allocations per node, whose
// length varies from block to block (the trie hashes with a per-process
// seed) and grows by about a third of a node on average from 1,000 to 4,000
// components; the toggles visit the first block of ten components so the
// pin measures the average, not one block's depth.
func TestHostedWriteScaleAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	measure := func(comps int) (allocs, bytes float64) {
		h := newHostedResolve(t, comps)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 20
		var before, after runtime.MemStats
		for i := 0; i < runs; i++ {
			key := "v" + strconv.Itoa(i/2%10) + "_0_0"
			runtime.ReadMemStats(&before)
			want := h.writeIn(t, comps, key)
			runtime.ReadMemStats(&after)
			if rep := h.resolve(t); rep != want {
				t.Fatalf("comps=%d: report %+v, want %+v", comps, rep, want)
			}
			allocs += float64(after.Mallocs - before.Mallocs)
			bytes += float64(after.TotalAlloc - before.TotalAlloc)
		}
		return allocs / runs, bytes / runs
	}
	a1, b1 := measure(1000)
	a4, b4 := measure(4000)
	t.Logf("allocs/write %.0f at 1,000 components, %.0f at 4,000; B/write %.0f and %.0f", a1, a4, b1, b4)
	if a4 > 1.1*a1 || a4 < 0.9*a1 {
		t.Errorf("allocs/write %.0f at 4,000 components is not within 10%% of %.0f at 1,000", a4, a1)
	}
	if b4 > 1.25*b1 || b4 < 0.75*b1 {
		t.Errorf("B/write %.0f at 4,000 components is not within 25%% of %.0f at 1,000", b4, b1)
	}
	for _, b := range []float64{b1, b4} {
		if b >= 16<<10 {
			t.Errorf("a write allocates %.0f B, not under 16 KB", b)
		}
	}
}

// TestHostedResolveScaleAllocRegression pins the read side of a hosted
// write as flat in the database's size: on the hosted C(3) instance at
// 1,000 and at 4,000 components, the verdict key plus SolveShardedMemo
// after one store-style write must allocate the same to within 10%, in
// allocations and in bytes. A full digest diff, an ordered decomposition
// or a memo lookup per component each grow with the database; before kept
// outcomes, the same read side allocated 318 KB at 1,000 components and
// 1,186 KB at 4,000.
func TestHostedResolveScaleAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	measure := func(comps int) (allocs, bytes float64) {
		h := newHostedResolve(t, comps)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 20
		var before, after runtime.MemStats
		for i := 0; i < runs; i++ {
			want := h.write(t, comps)
			runtime.ReadMemStats(&before)
			rep := h.resolve(t)
			runtime.ReadMemStats(&after)
			if rep != want {
				t.Fatalf("comps=%d: report %+v, want %+v", comps, rep, want)
			}
			allocs += float64(after.Mallocs - before.Mallocs)
			bytes += float64(after.TotalAlloc - before.TotalAlloc)
		}
		return allocs / runs, bytes / runs
	}
	a1, b1 := measure(1000)
	a4, b4 := measure(4000)
	t.Logf("allocs/op %.0f at 1,000 components, %.0f at 4,000; B/op %.0f and %.0f", a1, a4, b1, b4)
	if a4 > 1.1*a1 || a1 > 1.1*a4 {
		t.Errorf("allocs/op %.0f at 1,000 components and %.0f at 4,000 differ by 10%% or more", a1, a4)
	}
	if b4 > 1.1*b1 || b1 > 1.1*b4 {
		t.Errorf("B/op %.0f at 1,000 components and %.0f at 4,000 differ by 10%% or more", b1, b4)
	}
}

// TestParseAllocRegression pins the one-pass ingest on solve-inline's most
// common instance, about 250 facts of R(x | y), S(y | z). certd parses each
// inline database; the pin adds a digest of the query's relations, which
// certd computed for its verdict key before inline solves stopped
// consulting a verdict cache. Building the string facts, the digest and
// the interned view one after another made 4,335 allocations on this
// instance for the first two and 5,830 with the view. Parse now leaves the
// view built, so the solver's Interned() allocates nothing.
func TestParseAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	text := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 125, Domain: 100}, 1).String()
	rels := []string{"R", "S"}
	var d *db.DB
	ingest := testing.AllocsPerRun(20, func() {
		var err error
		if d, err = db.Parse(text); err != nil {
			t.Fatal(err)
		}
		d.DigestOf(rels)
	})
	// Each call reads the view of a database just parsed (AllocsPerRun
	// makes one warm-up call before its runs).
	parsed := make([]*db.DB, 21)
	for i := range parsed {
		parsed[i] = db.MustParse(text)
	}
	next := 0
	view := testing.AllocsPerRun(len(parsed)-1, func() {
		parsed[next].Interned()
		next++
	})
	t.Logf("%d facts: Parse + DigestOf %.0f allocs/op, Interned %.0f", d.Len(), ingest, view)
	const ceiling = 1500
	if ingest > ceiling {
		t.Fatalf("Parse + DigestOf allocates %.0f/op, above the %d ceiling", ingest, ceiling)
	}
	if view != 0 {
		t.Fatalf("Interned() after Parse allocates %.0f/op, want 0", view)
	}
}

// inlineIngestCase is one solve-inline instance as the wire carries it:
// the JSON body json.Marshal makes of its request, and its compiled plan.
type inlineIngestCase struct {
	name string
	body []byte
	plan *solver.Plan
}

// inlineIngestCases draws one instance per family of the end-to-end
// benchmark's solve-inline mix: FO R(x | y), S(y | z) at about 250 and
// 1,000 facts, AC(3) and C(3) cycles, and a small q0 instance.
func inlineIngestCases(tb testing.TB) []inlineIngestCase {
	fo := cq.MustParseQuery("R(x | y), S(y | z)")
	insts := []struct {
		name string
		q    cq.Query
		d    *db.DB
	}{
		{"fo250", fo, gen.RandomDB(fo, gen.Config{Embeddings: 2, Noise: 125, Domain: 100}, 1)},
		{"fo1000", fo, gen.RandomDB(fo, gen.Config{Embeddings: 2, Noise: 500, Domain: 400}, 1)},
		{"ac3", cq.ACk(3), gen.CycleDB(gen.CycleConfig{K: 3, Width: 2, Components: 8, EncodeAll: true})},
		{"c3", cq.Ck(3), gen.CycleDB(gen.CycleConfig{K: 3, Width: 2, Components: 13, EncodeAll: true, SkipSk: true})},
		{"q0", cq.Q0(), gen.Q0DB(7, 2, 4, 1)},
	}
	out := make([]inlineIngestCase, len(insts))
	for i, in := range insts {
		body, err := json.Marshal(server.SolveRequest{Query: in.q.String(), DB: in.d.String()})
		if err != nil {
			tb.Fatal(err)
		}
		p, err := solver.CompilePlan(in.q)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = inlineIngestCase{in.name, body, p}
	}
	return out
}

// BenchmarkInlineIngest times what certd does with a solve-inline body
// besides parsing the query and planning: the wire-body decode, db.Parse
// and Plan.SolveCtx.
func BenchmarkInlineIngest(b *testing.B) {
	w := httptest.NewRecorder()
	for _, c := range inlineIngestCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := &http.Request{Body: io.NopCloser(bytes.NewReader(c.body)), ContentLength: int64(len(c.body))}
				req, err := server.DecodeSolveRequest(w, r, 8<<20)
				if err != nil {
					b.Fatal(err)
				}
				d, err := db.Parse(req.DB)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.plan.SolveCtx(context.Background(), d, solver.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestInlineSolveAllocRegression pins what an inline FO solve allocates
// after its query is planned: db.Parse plus Plan.SolveCtx on the
// 251-fact text of TestParseAllocRegression, under 85 KB per solve, with
// no string side built. Parse builds only the interned columns, and the
// compiled FO program reads nothing else; when Parse also cut the string
// side (tries, blocks, Fact values, orders) from them, a solve allocated
// 132 KB.
func TestInlineSolveAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	text := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 125, Domain: 100}, 1).String()
	p, err := solver.CompilePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	solve := func() {
		d, err := db.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.SolveCtx(context.Background(), d, solver.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm the pools
	builds := obs.Default.Counter("db_string_builds_total")
	before := builds.Value()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&m1)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	allocs := float64(m1.Mallocs-m0.Mallocs) / runs
	t.Logf("Parse + Plan.SolveCtx: %.0f B and %.0f allocations per solve", bytes, allocs)
	if bytes >= 85<<10 {
		t.Errorf("an inline FO solve allocates %.0f B, not under 85 KB", bytes)
	}
	if got := builds.Value() - before; got != 0 {
		t.Errorf("inline FO solves built %d string sides, want none", got)
	}
}
