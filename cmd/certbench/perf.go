package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/prob"
	"github.com/cqa-go/certainty/internal/solver"
)

// perfEntry is one (method, variant, scale) measurement of the performance
// baseline matrix. Many variants come in pairs — a reference path and the
// production path measured on the same instance (per-call vs compiled plan,
// monolithic vs sharded, loop vs batch, full vs delta) — so the file
// records the speedup each optimization layer buys and gives future PRs a
// trajectory to beat. Alongside the ns/op mean, each entry reports
// p50/p95/p99 per-op latency from an internal/obs histogram: tail latency is
// what the serving layer's deadlines actually meet, and a mean alone hides
// it.
type perfEntry struct {
	Name      string  `json:"name"`
	Method    string  `json:"method"`
	Variant   string  `json:"variant"`
	Scale     int     `json:"scale"`
	NsPerOp   int64   `json:"ns_per_op"`
	P50Ns     int64   `json:"p50_ns"`
	P95Ns     int64   `json:"p95_ns"`
	P99Ns     int64   `json:"p99_ns"`
	AllocsOp  int64   `json:"allocs_per_op"`
	BytesOp   int64   `json:"bytes_per_op"`
	SpeedupVs string  `json:"speedup_vs,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
}

type perfReport struct {
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	Quick     bool         `json:"quick"`
	Entries   []perfEntry  `json:"benchmarks"`
	Summary   *perfSummary `json:"summary,omitempty"`
}

// perfSummary compares this run against a previous baseline report
// (certbench -json NEW -baseline OLD): for every benchmark name present in
// both files it records baseline_ns / current_ns, so a PR's report carries
// its own before/after story instead of requiring the reader to diff two
// JSON files by hand.
type perfSummary struct {
	Baseline string             `json:"baseline"`
	Compared int                `json:"compared"`
	Geomean  float64            `json:"geomean_speedup"`
	Speedups map[string]float64 `json:"speedups"`
}

// summarize loads the baseline report and computes per-name speedups for
// the intersection of benchmark names.
func summarize(baselinePath string, entries []perfEntry) (*perfSummary, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var base perfReport
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	baseNs := make(map[string]int64, len(base.Entries))
	for _, e := range base.Entries {
		baseNs[e.Name] = e.NsPerOp
	}
	s := &perfSummary{Baseline: baselinePath, Speedups: map[string]float64{}}
	logSum := 0.0
	for _, e := range entries {
		b, ok := baseNs[e.Name]
		if !ok || b <= 0 || e.NsPerOp <= 0 {
			continue
		}
		sp := float64(b) / float64(e.NsPerOp)
		s.Speedups[e.Name] = sp
		logSum += math.Log(sp)
		s.Compared++
	}
	if s.Compared > 0 {
		s.Geomean = math.Exp(logSum / float64(s.Compared))
	}
	return s, nil
}

// checkSpeedupRegressions is the CI gate: every within-run pair speedup
// recorded in both this run and the baseline report must not have shrunk by
// more than pct percent. Pair speedups compare two code paths measured
// seconds apart on the same machine, so — unlike raw ns/op — they are
// stable across hardware and make an honest cross-run gate.
func checkSpeedupRegressions(baselinePath string, entries []perfEntry, pct float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base perfReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	baseSp := make(map[string]float64, len(base.Entries))
	for _, e := range base.Entries {
		if e.Speedup > 0 {
			baseSp[e.Name] = e.Speedup
		}
	}
	var regressed []string
	checked := 0
	for _, e := range entries {
		b, ok := baseSp[e.Name]
		if !ok || e.Speedup <= 0 {
			continue
		}
		checked++
		if e.Speedup < b*(1-pct/100) {
			regressed = append(regressed,
				fmt.Sprintf("%s: pair speedup %.2fx, baseline %.2fx", e.Name, e.Speedup, b))
		}
	}
	fmt.Printf("  regression gate: %d pair speedups checked against %s at -%.0f%%\n", checked, baselinePath, pct)
	if len(regressed) > 0 {
		return fmt.Errorf("pair speedups regressed more than %.0f%% vs %s:\n  %s",
			pct, baselinePath, strings.Join(regressed, "\n  "))
	}
	return nil
}

// perfBuckets is a 1-2-5 series from 100ns to 10s: three edges per decade,
// so interpolated percentiles resolve within a factor of ~2 instead of the
// full decade obs.DefBuckets would give. The serving layer keeps the coarse
// fixed buckets (exposition stability matters there); this histogram is
// local to one certbench run, so finer edges cost nothing.
func perfBuckets() []float64 {
	var edges []float64
	for e := -7; e <= 0; e++ {
		d := math.Pow(10, float64(e))
		edges = append(edges, 1*d, 2*d, 5*d)
	}
	return append(edges, 10)
}

// measure benchmarks one operation: testing.Benchmark supplies the mean
// (ns/op, allocs/op), then a separate sampling pass times individual ops
// into an obs histogram for the percentile columns. The passes are distinct
// so the per-op clock reads never perturb the mean the speedup pairs
// compare.
func measure(name, method, variant string, scale int, op func() error) (perfEntry, error) {
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return perfEntry{}, fmt.Errorf("%s: %w", name, benchErr)
	}
	h := obs.NewHistogram(perfBuckets())
	samples := r.N
	if samples > 2000 {
		samples = 2000
	}
	if samples < 50 {
		samples = 50
	}
	for i := 0; i < samples; i++ {
		start := time.Now()
		if err := op(); err != nil {
			return perfEntry{}, fmt.Errorf("%s: %w", name, err)
		}
		h.Observe(time.Since(start).Seconds())
	}
	return perfEntry{
		Name:     name,
		Method:   method,
		Variant:  variant,
		Scale:    scale,
		NsPerOp:  r.NsPerOp(),
		P50Ns:    quantileNs(h, 0.50),
		P95Ns:    quantileNs(h, 0.95),
		P99Ns:    quantileNs(h, 0.99),
		AllocsOp: r.AllocsPerOp(),
		BytesOp:  r.AllocedBytesPerOp(),
	}, nil
}

// quantileNs reads a histogram quantile in nanoseconds (0 when empty).
func quantileNs(h *obs.Histogram, p float64) int64 {
	q := h.Quantile(p)
	if math.IsNaN(q) {
		return 0
	}
	return int64(q * 1e9)
}

// pairSpeedup annotates the production entry of a reference/production pair.
func pairSpeedup(ref, prod perfEntry) perfEntry {
	prod.SpeedupVs = ref.Name
	if prod.NsPerOp > 0 {
		prod.Speedup = float64(ref.NsPerOp) / float64(prod.NsPerOp)
	}
	return prod
}

// chainComponentsDB builds an instance for the FO join query
// R(x | y), S(y | z) whose fact co-occurrence graph has exactly comps
// connected components: component i contributes the block R(a_i | b_i,
// b_i') and the block S(b_i | c_i, c_i') over constants private to i. Per
// component there are 4 repairs of which 2 satisfy the query (those where
// the R block keeps b_i), so the instance is not certain, the total repair
// count is 4^comps, and monolithic repair enumeration is exponential in
// comps while the shard decomposition solves comps independent 4-repair
// sub-instances.
func chainComponentsDB(comps int) *db.DB {
	facts := make([]db.Fact, 0, 4*comps)
	for i := 0; i < comps; i++ {
		a, b, b2 := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("b%d'", i)
		c, c2 := fmt.Sprintf("c%d", i), fmt.Sprintf("c%d'", i)
		facts = append(facts,
			db.Fact{Rel: "R", KeyLen: 1, Args: []string{a, b}},
			db.Fact{Rel: "R", KeyLen: 1, Args: []string{a, b2}},
			db.Fact{Rel: "S", KeyLen: 1, Args: []string{b, c}},
			db.Fact{Rel: "S", KeyLen: 1, Args: []string{b, c2}},
		)
	}
	return db.MustFromFacts(facts...)
}

// runPerfJSON runs the performance matrix — the compiled FO rewriting,
// embedding enumeration, Terminal, AC(k), the falsifying search, end-to-end
// Solve (per-call vs compiled plan), component-sharded
// counting/probability/solving (monolithic vs 8-way shard decomposition),
// batch serving (per-call loop vs memoized SolveBatch), and delta re-solve
// (mutate one block, then full sharded re-solve vs SolveShardedMemo with a
// shard memo) — and writes the machine-readable report. With a baseline file, the report also carries a
// per-name speedup summary against it; with failRegressPct > 0 it fails if
// any within-run pair speedup regressed by more than that percentage
// against the baseline's recorded pair speedup.
func runPerfJSON(path, baseline string, quick bool, failRegressPct float64) error {
	scales := []int{8, 32, 128}
	satVars := []int{6, 9, 12}
	comps := []int{8, 32, 128}
	if quick {
		scales = []int{4, 8, 16}
		satVars = []int{4, 6, 8}
		comps = []int{4, 8, 16}
	}
	report := perfReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     quick,
	}
	add := func(e perfEntry) {
		report.Entries = append(report.Entries, e)
		fmt.Printf("  %-28s scale=%-4d %12d ns/op  p50=%d p95=%d p99=%d ns %8d allocs/op %10d B/op\n",
			e.Name, e.Scale, e.NsPerOp, e.P50Ns, e.P95Ns, e.P99Ns, e.AllocsOp, e.BytesOp)
	}

	// FO rewriting: the compiled program's schedule over dense uint32 ids
	// and block-offset arrays with a pooled slot environment (zero
	// allocations on a warm run).
	foQ := cq.MustParseQuery("R(x | y), S(y | z)")
	for _, n := range scales {
		d := gen.RandomDB(foQ, gen.Config{Embeddings: n, Noise: n, Domain: n}, int64(n))
		d.Interned() // build the columnar view outside the timed region, as a server would
		prog, err := solver.CompileFO(foQ)
		if err != nil {
			return err
		}
		e, err := measure(fmt.Sprintf("fo/interned/emb=%d", n), "fo", "interned", n, func() error {
			_, err := prog.Certain(context.Background(), foQ, d)
			return err
		})
		if err != nil {
			return err
		}
		add(e)
	}

	// Embedding enumeration: posting intersection over uint32 fact
	// indices, slot environments, valuations materialized at yield.
	engQ := cq.MustParseQuery("R(x | y), S(y | z), T(z | w)")
	for _, n := range scales {
		d := gen.RandomDB(engQ, gen.Config{Embeddings: n, Noise: n, Domain: n}, int64(n))
		d.Interned()
		e, err := measure(fmt.Sprintf("engine/interned/emb=%d", n), "engine", "interned", n, func() error {
			engine.EachEmbedding(engQ, d, func(cq.Valuation) bool { return true })
			return nil
		})
		if err != nil {
			return err
		}
		add(e)
	}

	// Terminal weak cycles (Theorem 3): the plan is compiled once, as the
	// fo/interned rows compile their program, so the rows time the Lemma 8
	// recursion and its base-case leaves, not the per-query compilation.
	termQ := gen.TerminalPairsQuery(2, true)
	termPlan, err := solver.CompilePlan(termQ)
	if err != nil {
		return err
	}
	for _, n := range scales {
		emb := n / 4
		if emb < 1 {
			emb = 1
		}
		d := gen.RandomDB(termQ, gen.Config{Embeddings: emb, Noise: 2, Domain: 3}, int64(n))
		d.Interned()
		e, err := measure(fmt.Sprintf("terminal/indexed/emb=%d", emb), "terminal", "indexed", emb, func() error {
			_, err := termPlan.SolveCtx(context.Background(), d, solver.Options{})
			return err
		})
		if err != nil {
			return err
		}
		add(e)
	}

	// AC(k) graph marking.
	ackQ := cq.ACk(3)
	shape, ok := core.MatchCycleShape(ackQ, true)
	if !ok {
		return fmt.Errorf("AC(3) shape match failed")
	}
	for _, c := range comps {
		d := gen.CycleDB(gen.CycleConfig{K: 3, Components: c, Width: 2, EncodeAll: true})
		d.Interned()
		e, err := measure(fmt.Sprintf("ack/seq/comps=%d", c), "ack", "seq", c, func() error {
			_, err := solver.CertainACk(context.Background(), ackQ, shape, d)
			return err
		})
		if err != nil {
			return err
		}
		add(e)
	}

	// Falsifying-repair search on Monotone-SAT-encoded q0 instances.
	falsQ := cq.Q0()
	for _, v := range satVars {
		f := gen.RandomMonotoneSAT(v, 5*v, 3, int64(100*v))
		d := gen.MonotoneSATQ0DB(f)
		d.Interned()
		e, err := measure(fmt.Sprintf("falsifying/indexed/vars=%d", v), "falsifying", "indexed", v, func() error {
			_, err := solver.CertainByFalsifying(context.Background(), falsQ, d)
			return err
		})
		if err != nil {
			return err
		}
		add(e)
	}

	// End-to-end Solve: per-call classification vs the compiled plan.
	for _, n := range scales {
		d := gen.RandomDB(foQ, gen.Config{Embeddings: n, Noise: n, Domain: n}, int64(n))
		d.Interned()
		seed, err := measure(fmt.Sprintf("solve/per-call/emb=%d", n), "solve", "seed", n, func() error {
			_, err := solver.SolveCtx(context.Background(), foQ, d, solver.Options{})
			return err
		})
		if err != nil {
			return err
		}
		p, err := solver.CompilePlan(foQ)
		if err != nil {
			return err
		}
		planned, err := measure(fmt.Sprintf("solve/plan/emb=%d", n), "solve", "plan", n, func() error {
			_, err := p.SolveCtx(context.Background(), d, solver.Options{})
			return err
		})
		if err != nil {
			return err
		}
		add(seed)
		add(pairSpeedup(seed, planned))
	}

	// Component-sharded ♯CERTAINTY and PROBABILITY (§7): monolithic repair
	// enumeration visits 4^comps repairs; the shard decomposition visits
	// comps independent 4-repair sub-instances and combines with the exact
	// product algebra. The speedup is algorithmic (sum of shard spaces
	// instead of their product), on top of the worker-pool parallelism.
	shardComps := []int{4, 6, 8}
	if quick {
		shardComps = []int{2, 3, 4}
	}
	for _, c := range shardComps {
		d := chainComponentsDB(c)
		d.Interned()
		mono, err := measure(fmt.Sprintf("count/mono/comps=%d", c), "count", "mono", c, func() error {
			prob.CountSatisfyingRepairs(foQ, d)
			return nil
		})
		if err != nil {
			return err
		}
		sharded, err := measure(fmt.Sprintf("count/sharded/comps=%d", c), "count", "sharded", c, func() error {
			prob.CountSatisfyingSharded(foQ, d)
			return nil
		})
		if err != nil {
			return err
		}
		add(mono)
		add(pairSpeedup(mono, sharded))
	}
	{
		c := shardComps[len(shardComps)-1]
		d := chainComponentsDB(c)
		d.Interned()
		mono, err := measure(fmt.Sprintf("prob/mono/comps=%d", c), "prob", "mono", c, func() error {
			prob.UniformProbability(foQ, d)
			return nil
		})
		if err != nil {
			return err
		}
		sharded, err := measure(fmt.Sprintf("prob/sharded/comps=%d", c), "prob", "sharded", c, func() error {
			prob.UniformProbabilitySharded(foQ, d)
			return nil
		})
		if err != nil {
			return err
		}
		add(mono)
		add(pairSpeedup(mono, sharded))
	}

	// End-to-end sharded decision on the same multi-component instances:
	// records what the shard machinery costs (or buys) for a query whose
	// monolithic method is already polynomial — the honest overhead number
	// next to the exponential counting win above.
	{
		c := shardComps[len(shardComps)-1]
		d := chainComponentsDB(c)
		d.Interned()
		mono, err := measure(fmt.Sprintf("solve/mono/comps=%d", c), "solve", "mono", c, func() error {
			_, err := solver.SolveCtx(context.Background(), foQ, d, solver.Options{})
			return err
		})
		if err != nil {
			return err
		}
		sharded, err := measure(fmt.Sprintf("solve/sharded/comps=%d", c), "solve", "sharded", c, func() error {
			_, err := solver.SolveCtx(context.Background(), foQ, d, solver.Options{Sharded: true})
			return err
		})
		if err != nil {
			return err
		}
		add(mono)
		add(pairSpeedup(mono, sharded))
	}

	// Batch serving: a loop of independent SolveCtx calls re-classifies the
	// query per item; SolveBatch memoizes the compiled plan per canonical
	// query in a fresh plan cache and fans items out on the worker pool.
	batchSizes := []int{32, 128}
	if quick {
		batchSizes = []int{8, 16}
	}
	for _, n := range batchSizes {
		items := make([]solver.BatchItem, n)
		for i := range items {
			d := gen.RandomDB(foQ, gen.Config{Embeddings: 8, Noise: 8, Domain: 8}, int64(i+1))
			d.Interned()
			items[i] = solver.BatchItem{Query: foQ, DB: d}
		}
		loop, err := measure(fmt.Sprintf("batch/loop/items=%d", n), "batch", "loop", n, func() error {
			for _, it := range items {
				if _, err := solver.SolveCtx(context.Background(), it.Query, it.DB, solver.Options{}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		memo, err := measure(fmt.Sprintf("batch/memo/items=%d", n), "batch", "memo", n, func() error {
			for _, r := range solver.SolveBatch(context.Background(), items, solver.Options{}, solver.NewPlanCache(0, nil), nil) {
				if r.Err != nil {
					return r.Err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		add(loop)
		add(pairSpeedup(loop, memo))
	}

	// Delta re-solve: the pair measures "mutate one block, then re-answer"
	// on the never-certain chain instance (a certain shard would settle the
	// disjunction on both sides and hide the memo). The full side is a
	// from-scratch sharded solve of the post-mutation snapshot; the delta
	// side is SolveShardedMemo with a shard memo, which recomputes only the
	// touched shard, reusing every other shard's memoized result. Both sides
	// run on the finest partition (one shard per co-occurrence group) with
	// the worker pool pinned to one slot: the pair must record the work the memo *skipped*, and that
	// ratio is only hardware-independent (gateable) if the full side cannot
	// hide its extra shards behind the host's core count. The parallelism
	// win is already recorded by the mono/sharded pairs above.
	restoreWorkers := govern.SetWorkerLimit(1)
	{
		const c = 16
		d := chainComponentsDB(c)
		d.Interned()
		p, err := solver.CompilePlan(foQ)
		if err != nil {
			return err
		}
		toggle := db.Fact{Rel: "S", KeyLen: 1, Args: []string{"b0", "ctoggle"}}
		present := false
		mutate := func() error {
			if present {
				d.Remove(toggle)
			} else if err := d.Add(toggle); err != nil {
				return err
			}
			present = !present
			return nil
		}
		full, err := measure(fmt.Sprintf("deltasolve/full/comps=%d", c), "deltasolve", "full", c, func() error {
			if err := mutate(); err != nil {
				return err
			}
			_, _, err := p.SolveShardedMemo(context.Background(), d, solver.Options{}, nil)
			return err
		})
		if err != nil {
			return err
		}
		memo := solver.NewShardMemo(0, nil)
		if _, _, err := p.SolveShardedMemo(context.Background(), d, solver.Options{}, memo); err != nil {
			return err
		}
		delta, err := measure(fmt.Sprintf("deltasolve/delta/comps=%d", c), "deltasolve", "delta", c, func() error {
			if err := mutate(); err != nil {
				return err
			}
			_, _, err := p.SolveShardedMemo(context.Background(), d, solver.Options{}, memo)
			return err
		})
		if err != nil {
			return err
		}
		add(full)
		add(pairSpeedup(full, delta))
	}
	restoreWorkers()

	if baseline != "" {
		s, err := summarize(baseline, report.Entries)
		if err != nil {
			return err
		}
		report.Summary = s
		fmt.Printf("  summary vs %s: %d shared benchmarks, geomean speedup %.2fx\n",
			s.Baseline, s.Compared, s.Geomean)
		if failRegressPct > 0 {
			if err := checkSpeedupRegressions(baseline, report.Entries, failRegressPct); err != nil {
				return err
			}
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d entries)\n", path, len(report.Entries))
	return nil
}
