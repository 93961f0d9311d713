package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/server"
)

// Fixed label sets of the per-layer metrics: every run prints all of them,
// 0 where a layer did nothing.
var (
	clientFailCodes = []string{failTransport, server.CodeShed, server.CodeShutdown, server.CodeInternal,
		server.CodeUnavailable, server.CodeVersionFenced, server.CodeReadOnly, failUnknown, failWrong}
	rejectionCodes = []string{server.CodeShed, server.CodeShutdown, server.CodeInternal, server.CodeMalformed,
		server.CodeUnsupported, server.CodePolicy, server.CodeConflict, server.CodeReadOnly, server.CodeVersionFenced}
	evalMethods     = []string{"fo-rewriting", "terminal", "ack-marking", "ck-marking", "falsifying-search"}
	cutoffCauses    = []string{"budget", "deadline", "canceled", "other"}
	failoverReasons = []string{"transport", server.CodeShed, server.CodeShutdown, server.CodeInternal,
		server.CodeReadOnly, server.CodeVersionFenced, "item", "stall"}
)

// perLayerMetrics are the metrics a --trace 1 run reports.
var perLayerMetrics = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	add("ms", "client.gen_lag_ms.max", "client.gen_lag_ms.p99", "client.open_p50_ms", "client.open_p90_ms",
		"client.rtt_ms.p50", "client.solve_p99_ms", "client.write_p50_ms", "client.write_p90_ms")
	add("%", "client.host_steal_pct")
	add("ratio", "client.fail_ratio")
	add("count", "client.failed", "client.attempted")
	for _, c := range clientFailCodes {
		add("count", "client.fail."+c)
	}
	add("ms", "server.handler_ms.p50", "server.self_ms.p50")
	add("us", "server.decode_us.p50", "server.encode_us.p50")
	add("ms", "server.other_ms.p50")
	add("ratio", "server.verdict_cache.hit_ratio")
	add("count", "server.verdict_cache.hits", "server.verdict_cache.lookups")
	for _, c := range rejectionCodes {
		add("count", "server.rejections."+c)
	}
	add("us", "cq.parse_us.p50", "cq.canonical_key_us.p50")
	add("ms", "db.parse_ms.p50")
	add("ns", "db.parse_ns_per_fact")
	add("ms", "db.digest_ms.p50")
	add("ratio", "db.index_builds_per_op")
	add("count", "db.index_builds", "db.ops")
	add("us", "core.classify_us.p50")
	add("ratio", "core.cache.hit_ratio")
	add("count", "core.cache.hits", "core.cache.lookups")
	add("ratio", "plan.cache.hit_ratio")
	add("count", "plan.cache.hits", "plan.cache.lookups")
	add("ms", "plan.compile_ms.sum", "shard.decompose_ms.p50")
	add("ratio", "shard.shards_per_solve")
	add("count", "shard.shards", "shard.decomposes")
	add("ms", "solver.solve_ms.p50")
	for _, m := range evalMethods {
		add("ms", "solver.eval_ms."+m+".p50")
	}
	add("ms", "solver.shard_solve_ms.p50")
	add("ratio", "solver.memo.reuse_ratio")
	add("count", "solver.memo.reused", "solver.memo.lookups")
	for _, c := range cutoffCauses {
		add("count", "govern.cutoffs."+c)
	}
	add("ms", "wal.fsync_ms.mean")
	add("count", "wal.fsyncs")
	add("ratio", "wal.records_per_fsync")
	add("count", "wal.records", "wal.snapshots")
	add("ms", "wal.write_handler_ms.p50", "fleet.handler_ms.p50", "fleet.hop_ms.p50")
	add("ratio", "fleet.hops_per_batch")
	add("count", "fleet.hops", "fleet.batches")
	for _, r := range failoverReasons {
		add("count", "fleet.failovers."+r)
	}
	add("%", "obs.trace_overhead_pct")
	add("count", "obs.spans", "obs.spans_dropped")
	return out
}()

// layerValues maps metric names to values; bases names each ratio's
// numerator and denominator metrics.
type layerValues map[string]float64

var bases = map[string][2]string{
	"client.fail_ratio":              {"client.failed", "client.attempted"},
	"server.verdict_cache.hit_ratio": {"server.verdict_cache.hits", "server.verdict_cache.lookups"},
	"db.index_builds_per_op":         {"db.index_builds", "db.ops"},
	"core.cache.hit_ratio":           {"core.cache.hits", "core.cache.lookups"},
	"plan.cache.hit_ratio":           {"plan.cache.hits", "plan.cache.lookups"},
	"shard.shards_per_solve":         {"shard.shards", "shard.decomposes"},
	"solver.memo.reuse_ratio":        {"solver.memo.reused", "solver.memo.lookups"},
	"wal.records_per_fsync":          {"wal.records", "wal.fsyncs"},
	"fleet.hops_per_batch":           {"fleet.hops", "fleet.batches"},
}

// base renders a ratio's numerator and denominator for the text output.
func (l layerValues) base(name string) string {
	b, ok := bases[name]
	if !ok {
		return ""
	}
	return fmt.Sprintf("  (%g / %g)", l[b[0]], l[b[1]])
}

// setRatio records num, den and their ratio under the names bases gives.
func (l layerValues) setRatio(name string, num, den float64) {
	b := bases[name]
	l[b[0]], l[b[1]] = num, den
	l[name] = ratio(num, den)
}

// spanTree indexes a traced pass's spans.
type spanTree struct {
	spans    []obs.SpanRecord
	byID     map[uint64]int
	children map[uint64][]int
}

func newSpanTree(spans []obs.SpanRecord) *spanTree {
	t := &spanTree{spans: spans, byID: map[uint64]int{}, children: map[uint64][]int{}}
	for i, s := range spans {
		t.byID[s.ID] = i
	}
	for i, s := range spans {
		if s.ParentID != 0 {
			t.children[s.ParentID] = append(t.children[s.ParentID], i)
		}
	}
	return t
}

func attr(s obs.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// self is the span's duration minus the part of its interval its child
// spans cover (children may overlap: batch items run concurrently).
func (t *spanTree) self(s obs.SpanRecord) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range t.children[s.ID] {
		cs := t.spans[c]
		ivs = append(ivs, iv{cs.Start, cs.Start.Add(cs.Duration)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.Before(end) {
			v.a = end
		}
		if v.b.After(v.a) {
			covered += v.b.Sub(v.a)
			end = v.b
		}
	}
	return s.Duration - covered
}

// handlers returns the root handler spans of the given node set and route.
func (t *spanTree) handlers(nodes map[string]bool, routes ...string) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, s := range t.spans {
		if s.Name != "handler" || !nodes[attr(s, "node")] {
			continue
		}
		for _, r := range routes {
			if attr(s, "route") == r {
				out = append(out, s)
			}
		}
	}
	return out
}

// named returns the durations of every span named name, in ms; keep
// filters them when non-nil.
func (t *spanTree) named(name string, keep func(obs.SpanRecord) bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, ms(s.Duration))
		}
	}
	return out
}

// directTimes are the direct-call timings of the public functions the
// handler calls around the solve, on kept request bodies.
type directTimes struct {
	decode, encode, parseQ, canon, classify, parseDB, digest []time.Duration
	parseNS, facts                                           float64
	perOp                                                    map[int]time.Duration
}

func timed(d *time.Duration, fn func()) {
	t0 := time.Now()
	fn()
	*d = time.Since(t0)
}

// timeDirect times the handler-side calls on the kept bodies: JSON decode
// and encode of the wire types, cq.ParseQuery, cq.CanonicalKey, db.Parse,
// DB.DigestOf over the query's relations (on the hosted snapshot for
// hosted reads) and core.Cache.Classify on a warm cache.
func timeDirect(st *stream, p *passResult) *directTimes {
	dt := &directTimes{perOp: map[int]time.Duration{}}
	cache := core.NewCache()
	var idxs []int
	for i := range p.kept {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	item := func(query, dbText string) time.Duration {
		var tq, tc, tcl, tp, td time.Duration
		var q cq.Query
		var err error
		timed(&tq, func() { q, err = cq.ParseQuery(query) })
		if err != nil {
			panic(err) // generated queries parse
		}
		timed(&tc, func() { cq.CanonicalKey(q) })
		if _, err := cache.Classify(q); err != nil {
			panic(err)
		}
		timed(&tcl, func() { cache.Classify(q) })
		rels := make([]string, len(q.Atoms))
		for i, a := range q.Atoms {
			rels[i] = a.Rel
		}
		d := p.snapshot
		if dbText != "" {
			timed(&tp, func() { d, err = db.Parse(dbText) })
			if err != nil {
				panic(err)
			}
			dt.parseDB = append(dt.parseDB, tp)
			dt.parseNS += float64(tp.Nanoseconds())
			dt.facts += float64(d.Len())
		}
		if d != nil {
			timed(&td, func() { d.DigestOf(rels) })
			dt.digest = append(dt.digest, td)
		}
		dt.parseQ = append(dt.parseQ, tq)
		dt.canon = append(dt.canon, tc)
		dt.classify = append(dt.classify, tcl)
		return tq + tc + tcl + tp + td
	}
	for _, i := range idxs {
		o := &st.ops[i]
		var tdec, tenc time.Duration
		var sum time.Duration
		switch o.kind {
		case opSolve:
			var req server.SolveRequest
			var resp server.SolveResponse
			timed(&tdec, func() { decodeInto(o.body, &req) })
			sum = item(req.Query, req.DB)
			decodeInto(p.kept[i], &resp)
			timed(&tenc, func() { encodeOut(&resp) })
		case opBatch:
			var req server.BatchSolveRequest
			var resp server.BatchSolveResponse
			timed(&tdec, func() { decodeInto(o.body, &req) })
			for _, it := range req.Items {
				sum += item(it.Query, it.DB)
			}
			decodeInto(p.kept[i], &resp)
			timed(&tenc, func() { encodeOut(&resp) })
		}
		dt.decode = append(dt.decode, tdec)
		dt.encode = append(dt.encode, tenc)
		dt.perOp[i] = tdec + sum + tenc
	}
	return dt
}

func decodeInto(body []byte, v any) {
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		panic(err) // bodies the benchmark generated or certd answered with 200
	}
}

func encodeOut(v any) {
	if err := json.NewEncoder(io.Discard).Encode(v); err != nil {
		panic(err)
	}
}

func p50(ds []time.Duration, unit func(time.Duration) float64) float64 {
	return quantile(durations(ds, unit), 0.5)
}

// perLayer computes the per-layer metrics: client.* from the untraced pass,
// everything else from the traced pass's spans, counters and direct calls.
func perLayer(w *workload, st *stream, plain, tp *passResult) layerValues {
	l := layerValues{}

	// Generator.
	lags := plain.lags()
	l["client.gen_lag_ms.max"] = quantile(lags, 1)
	l["client.gen_lag_ms.p99"] = quantile(lags, 0.99)
	l["client.open_p50_ms"] = quantile(latencies(plain.open, opSolve), 0.5)
	l["client.open_p90_ms"] = quantile(latencies(plain.open, opSolve), 0.9)
	l["client.host_steal_pct"] = 100 * plain.closedSteal
	l["client.rtt_ms.p50"] = p50(tp.rtt, ms)
	l["client.solve_p99_ms"] = plain.solveLatency(0.99)
	writes := append(latencies(plain.open, opWrite), latencies(plain.closed, opWrite)...)
	l["client.write_p50_ms"] = quantile(writes, 0.5)
	l["client.write_p90_ms"] = quantile(writes, 0.9)
	attempted, failed := plain.counts()
	l.setRatio("client.fail_ratio", float64(failed), float64(attempted))
	codes := plain.failCodes()
	for _, c := range clientFailCodes {
		l["client.fail."+c] = float64(codes[c])
	}

	// Counters: worker nodes (summed), the coordinator, the process.
	workers := counters{}
	workerNames := map[string]bool{}
	for name, c := range tp.delta {
		if name != "process" && name != "coordinator" {
			workerNames[name] = true
			for k, v := range c {
				workers[k] += v
			}
		}
	}
	coord := tp.delta["coordinator"]
	proc := tp.delta["process"]
	cacheRatio := func(name, cache string) {
		h := workers["statsz."+cache+".hits"]
		l.setRatio(name, h, h+workers["statsz."+cache+".misses"])
	}
	cacheRatio("server.verdict_cache.hit_ratio", "verdicts")
	cacheRatio("core.cache.hit_ratio", "classify")
	cacheRatio("plan.cache.hit_ratio", "plans")
	for _, c := range rejectionCodes {
		l["server.rejections."+c] = workers[`certd_rejections_total{code="`+c+`"}`]
	}
	ops, _ := tp.counts()
	l.setRatio("db.index_builds_per_op", proc["db_index_builds_total"], float64(ops))
	l.setRatio("shard.shards_per_solve", proc["shard_instances_total"], proc["shard_decompose_total"])
	for _, c := range cutoffCauses {
		l["govern.cutoffs."+c] = proc[`govern_cutoffs_total{cause="`+c+`"}`]
	}
	reused := workers["certd_delta_shards_reused_total"]
	l.setRatio("solver.memo.reuse_ratio", reused, reused+workers["certd_delta_shards_recomputed_total"])
	fsyncs := workers["certd_wal_fsync_seconds_count"]
	l["wal.fsync_ms.mean"] = ratio(workers["certd_wal_fsync_seconds_sum"]*1000, fsyncs)
	l.setRatio("wal.records_per_fsync", workers["certd_wal_appends_total"], fsyncs)
	l["wal.snapshots"] = workers.sum("certd_wal_snapshots_total")
	l.setRatio("fleet.hops_per_batch", workers["certd_batch_total"],
		coord[`certd_fleet_requests_total{outcome="ok",path="/v1/solve/batch"}`])
	for _, r := range failoverReasons {
		l["fleet.failovers."+r] = coord[`certd_fleet_failovers_total{reason="`+r+`"}`]
	}

	// Spans.
	t := newSpanTree(tp.spans)
	route := "POST /v1/solve"
	if w.name == "fleet-batch" {
		route = "POST /v1/solve/batch"
	}
	primary := t.handlers(workerNames, route)
	dt := timeDirect(st, tp)
	var handler, self, other []float64
	for _, s := range primary {
		handler = append(handler, ms(s.Duration))
		sf := t.self(s)
		self = append(self, ms(sf))
		if i, err := strconv.Atoi(attr(s, "op")); err == nil {
			if d, ok := dt.perOp[i]; ok {
				other = append(other, ms(sf-d))
			}
		}
	}
	l["server.handler_ms.p50"] = quantile(handler, 0.5)
	l["server.self_ms.p50"] = quantile(self, 0.5)
	l["server.other_ms.p50"] = quantile(other, 0.5)
	l["server.decode_us.p50"] = p50(dt.decode, us)
	l["server.encode_us.p50"] = p50(dt.encode, us)
	l["cq.parse_us.p50"] = p50(dt.parseQ, us)
	l["cq.canonical_key_us.p50"] = p50(dt.canon, us)
	l["db.parse_ms.p50"] = p50(dt.parseDB, ms)
	l["db.parse_ns_per_fact"] = ratio(dt.parseNS, dt.facts)
	l["db.digest_ms.p50"] = p50(dt.digest, ms)
	l["core.classify_us.p50"] = p50(dt.classify, us)

	sum := 0.0
	for _, v := range t.named("plan/compile", nil) {
		sum += v
	}
	l["plan.compile_ms.sum"] = sum
	l["shard.decompose_ms.p50"] = quantile(t.named("shard/decompose", nil), 0.5)
	topSolve := func(s obs.SpanRecord) bool {
		i, ok := t.byID[s.ParentID]
		return ok && (t.spans[i].Name == "handler" || t.spans[i].Name == "batch/item")
	}
	l["solver.solve_ms.p50"] = quantile(t.named("solve", topSolve), 0.5)
	for _, m := range evalMethods {
		l["solver.eval_ms."+m+".p50"] = quantile(t.named("eval/"+m, nil), 0.5)
	}
	l["solver.shard_solve_ms.p50"] = quantile(t.named("shard/solve", nil), 0.5)
	var writeMS []float64
	for _, s := range t.handlers(workerNames, "POST /v1/db/facts", "DELETE /v1/db/facts") {
		writeMS = append(writeMS, ms(s.Duration))
	}
	l["wal.write_handler_ms.p50"] = quantile(writeMS, 0.5)
	var fleetMS []float64
	for _, s := range t.handlers(map[string]bool{"coordinator": true}, "POST /v1/solve/batch") {
		fleetMS = append(fleetMS, ms(s.Duration))
	}
	l["fleet.handler_ms.p50"] = quantile(fleetMS, 0.5)
	l["fleet.hop_ms.p50"] = 0
	if w.name == "fleet-batch" {
		// A hop is a worker's handling of one coordinator sub-batch.
		l["fleet.hop_ms.p50"] = l["server.handler_ms.p50"]
	}

	// Tracing overhead: the traced pass against the untraced one.
	pe, te := endToEnd(plain, 0), endToEnd(tp, 0)
	if w.openRate > 0 {
		l["obs.trace_overhead_pct"] = (ratio(te["solve_p50_ms"], pe["solve_p50_ms"]) - 1) * 100
	} else {
		l["obs.trace_overhead_pct"] = (ratio(pe["verdicts_per_s"], te["verdicts_per_s"]) - 1) * 100
	}
	l["obs.spans"] = float64(len(tp.spans))
	l["obs.spans_dropped"] = float64(tp.dropped)
	return l
}
