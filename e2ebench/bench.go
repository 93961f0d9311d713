package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/solver"
)

// nproc bounds the generator: at most this many sender goroutines and
// connections, and as many goroutines building the stream.
var nproc = runtime.NumCPU()

// An untraced pass builds its deployment at least minSetupReps times and
// goes on while the builds took less than setupBudget in all, up to
// maxSetupReps; setup_s is the median, and only the last deployment serves
// the measured phases.
const (
	minSetupReps = 7
	maxSetupReps = 41
	setupBudget  = 400 * time.Millisecond
)

// stream is a workload's generated input: warm-up ops, then the measured
// ops. The first len(sched) ops are the open-loop phase (a third of the
// run), sent at their scheduled offsets; the closed-loop phase continues
// from there, wrapping around to the start.
type stream struct {
	warmup     []op
	ops        []op
	sched      []time.Duration
	openDur    time.Duration
	closedDur  time.Duration
	hostedText string // the hosted store's seed database, in db text
	hash       string
}

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// openRate is the open-loop arrival rate per second; 0 means the
	// workload has only the closed-loop phase.
	openRate float64
	// pool is the number of ops past the open-loop phase.
	pool int
	// conns is the closed loop's connection count.
	conns  int
	warmup func(seed int64) []op
	ops    func(seed int64, n int) []op
	// spansPerOp and spansFixed bound the spans one traced op and the whole
	// traced pass beyond its ops can record; they size the tracer's ring.
	spansPerOp, spansFixed int
	// kept is how many response bodies the traced pass keeps for the
	// direct-call timings.
	kept int
}

// Open-loop rates: about a third of the closed-loop rate solve-inline
// reaches on the 2-core host the benchmark was calibrated on, and a load
// at which the hosted node keeps up while a quarter of its reads re-solve.
const (
	inlineRate = 300
	hostedRate = 25
)

var workloads = map[string]*workload{
	"solve-inline": {
		name:     "solve-inline",
		why:      "stateless inline-DB solves: text parsing and the verdict key dominate; the verdict cache never hits; no WAL, shard memo or fleet",
		openRate: inlineRate,
		pool:     5000, // above the 4096-entry verdict cache, so cycling through it never hits
		// One connection: with both vCPUs busy, this VM's speed flips by a
		// quarter between runs (the host places the two vCPUs on shared or
		// separate cores); with one request at a time it moves half as much.
		conns: 1,
		warmup: func(seed int64) []op {
			return parallelOps(32, nproc, func(i int) op { return inlineOp(seed, streamWarmup, i) })
		},
		ops: func(seed int64, n int) []op {
			return parallelOps(n, nproc, func(i int) op { return inlineOp(seed, streamMain, i) })
		},
		spansPerOp: 8, spansFixed: 256, kept: 300,
	},
	"hosted-rw": {
		name:     "hosted-rw",
		why:      "hosted reads beside toggling writes: WAL group commit, COW index, shard decomposition, shard memo and relation-scoped verdict-cache invalidation",
		openRate: hostedRate,
		pool:     20000,
		// One connection: each write is followed by the same reads in every
		// run, so the re-solves a write causes do not depend on how two
		// senders interleave. The open loop's two senders put reads beside
		// writes.
		conns: 1,
		warmup: func(seed int64) []op {
			// Two reads of each query: the first solves all shards cold.
			var out []op
			for _, o := range hostedOps(seed, streamWarmup, 40) {
				if o.kind == opSolve && len(out) < 8 {
					out = append(out, o)
				}
			}
			return out
		},
		ops: func(seed int64, n int) []op { return hostedOps(seed, streamMain, n) },
		// A cold hosted solve records three spans per shard.
		spansPerOp: 16, spansFixed: 4 * hostedComponents * 2, kept: 300,
	},
	"fleet-batch": {
		name:  "fleet-batch",
		why:   "64-item batches through a coordinator over two workers: solver evaluation dominates; fleet routing, group splitting, NDJSON relay and fan-out",
		pool:  160, // 10240 items: each worker sees more than its 4096-entry verdict cache
		conns: nproc,
		warmup: func(seed int64) []op {
			return parallelOps(2, nproc, func(i int) op { return batchOp(seed, streamWarmup, i) })
		},
		ops: func(seed int64, n int) []op {
			return parallelOps(n, nproc, func(i int) op { return batchOp(seed, streamMain, i) })
		},
		spansPerOp: 4 * groupsPerBatch * itemsPerGroup * 2, spansFixed: 512, kept: 24,
	},
}

// generate builds the workload's stream for a seed and a run length.
func (w *workload) generate(seed int64, seconds int) *stream {
	st := &stream{closedDur: time.Duration(seconds) * time.Second}
	if w.openRate > 0 {
		st.openDur = st.closedDur / 3
		st.closedDur -= st.openDur
		st.sched = arrivals(seed, w.openRate, st.openDur)
	}
	st.warmup = w.warmup(seed)
	st.ops = w.ops(seed, len(st.sched)+w.pool)
	if w.name == "hosted-rw" {
		st.hostedText = hostedSeed(seed)
	}
	st.hash = streamHash(st)
	return st
}

// tracer sizes a ring that holds every span of a traced pass whose closed
// loop stops after closedOps+closedOps/4+nproc ops.
func (w *workload) tracer(st *stream, closedOps int) *obs.Tracer {
	ops := len(st.warmup) + len(st.sched) + closedOps + closedOps/4 + nproc
	return obs.NewTracer(obs.TracerOptions{Capacity: w.spansFixed + w.spansPerOp*ops})
}

// passResult is what one pass measured.
type passResult struct {
	setup  []time.Duration
	warmup []sample
	open   []sample
	closed []sample
	// closedDur is the closed-loop phase length the windows cut,
	// closedTime its wall time until the last response, and closedCPU the
	// process CPU time it used.
	closedDur, closedTime, closedCPU time.Duration
	// openSteal and closedSteal are the share of this VM's CPU time the
	// host stole during each phase.
	openSteal, closedSteal float64
	// delta holds each node's counter changes over the measured phases,
	// and the process-wide registry's under "process".
	delta map[string]counters
	// checkpoints lists failed fresh checks of the hosted snapshot.
	checkpoints []string
	// Traced passes only.
	spans    []obs.SpanRecord
	dropped  uint64
	kept     map[int][]byte
	rtt      []time.Duration
	snapshot *db.DB
}

// runPass builds the deployment (timing each build, see minSetupReps;
// once with a tracer), then warms up and runs the phases on the last one.
// With a tracer, every node is wrapped, response bodies are kept, and
// closedLimit caps the closed loop.
func runPass(ctx context.Context, w *workload, st *stream, tr *obs.Tracer, closedLimit int) (res *passResult, err error) {
	c := newClient(nproc)
	defer c.CloseIdleConnections()
	res = &passResult{delta: map[string]counters{}, closedDur: st.closedDur}
	var dep *deployment
	defer func() {
		if dep != nil {
			if cerr := dep.close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("teardown: %w", cerr))
			}
		}
	}()
	minReps, maxReps := minSetupReps, maxSetupReps
	if tr != nil {
		minReps, maxReps = 1, 1
	}
	var spent time.Duration
	for r := 0; ; r++ {
		t0 := time.Now()
		d, err := deploy(ctx, w, st.hostedText, tr)
		if err != nil {
			return nil, err
		}
		if err := waitReady(ctx, c, d.entry()); err != nil {
			return nil, errors.Join(err, d.close())
		}
		res.setup = append(res.setup, time.Since(t0))
		spent += res.setup[r]
		if r+1 >= maxReps || (r+1 >= minReps && spent >= setupBudget) {
			dep = d
			break
		}
		if err := d.close(); err != nil {
			return nil, err
		}
	}

	ld := &loader{client: c, url: dep.entry().url}
	for i := range st.warmup {
		res.warmup = append(res.warmup, ld.send(ctx, -1-i, &st.warmup[i]))
	}
	if tr != nil {
		var mu sync.Mutex
		res.kept = map[int][]byte{}
		stride := uint32(max(1, (len(st.sched)+closedLimit)/w.kept))
		ld.keep = func(i int, body []byte) {
			// A hashed sample: a plain i%stride would pick one position of
			// hosted-rw's fixed five-op pattern every time.
			if (uint32(i)*2654435761>>16)%stride != 0 || st.ops[i].kind == opWrite {
				return
			}
			mu.Lock()
			if len(res.kept) < w.kept {
				res.kept[i] = body
			}
			mu.Unlock()
		}
	}

	phase := func(fn func()) error {
		before, err := readCounters(ctx, c, dep)
		if err != nil {
			return err
		}
		fn()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		after, err := readCounters(ctx, c, dep)
		if err != nil {
			return err
		}
		for name, b := range before {
			if res.delta[name] == nil {
				res.delta[name] = counters{}
			}
			res.delta[name].add(b, after[name])
		}
		if dep.store != nil {
			res.checkpoints = append(res.checkpoints, checkSnapshot(dep)...)
		}
		return nil
	}
	if dep.store != nil {
		res.checkpoints = append(res.checkpoints, checkSnapshot(dep)...)
	}
	if len(st.sched) > 0 {
		if err := phase(func() {
			s0, t0 := cpuTimes()
			res.open = ld.open(ctx, st.ops, st.sched, nproc)
			s1, t1 := cpuTimes()
			res.openSteal = ratio(s1-s0, t1-t0)
		}); err != nil {
			return nil, err
		}
	}
	if err := phase(func() {
		s0, t0 := cpuTimes()
		c0 := processCPU()
		res.closed, res.closedTime = ld.closed(ctx, st.ops, len(st.sched), st.closedDur, w.conns, closedLimit)
		res.closedCPU = processCPU() - c0
		s1, t1 := cpuTimes()
		res.closedSteal = ratio(s1-s0, t1-t0)
	}); err != nil {
		return nil, err
	}
	if tr != nil {
		res.rtt = ping(ctx, c, dep.entry(), 200)
		res.spans = tr.Snapshot()
		res.dropped = tr.Dropped()
		if dep.store != nil {
			res.snapshot, _ = dep.store.DB()
		}
	}
	return res, ctx.Err()
}

// waitReady polls the node's /readyz until it answers 200.
func waitReady(ctx context.Context, c *http.Client, n *node) error {
	deadline := time.Now().Add(drainGrace)
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", n.url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (last error %v)", n.name, drainGrace, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// ping times sequential GET /healthz round trips: the floor of any request.
func ping(ctx context.Context, c *http.Client, n *node, count int) []time.Duration {
	var out []time.Duration
	for i := 0; i < count && ctx.Err() == nil; i++ {
		req, err := http.NewRequestWithContext(ctx, "GET", n.url+"/healthz", nil)
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		resp, err := c.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out = append(out, time.Since(t0))
	}
	return out
}

// readCounters reads every node and the process-wide registry.
func readCounters(ctx context.Context, c *http.Client, d *deployment) (map[string]counters, error) {
	out := map[string]counters{"process": processCounters()}
	for _, n := range d.nodes {
		m, err := scrape(ctx, c, n)
		if err != nil {
			return nil, err
		}
		out[n.name] = m
	}
	return out, nil
}

// checkSnapshot decides the hosted snapshot anew, with freshly
// compiled plans, and compares the verdicts with the ones the construction
// fixes; it also checks that the toggles left the size where they can.
func checkSnapshot(d *deployment) []string {
	snap, v := d.store.DB()
	var bad []string
	for _, c := range []struct {
		q    cq.Query
		want solver.Outcome
	}{{hostedQuery, solver.OutcomeNotCertain}, {untouchedQ, solver.OutcomeCertain}} {
		p, err := solver.CompilePlan(c.q)
		if err != nil {
			panic(err)
		}
		if got, ok := expect(p, snap); !ok || got != c.want {
			bad = append(bad, fmt.Sprintf("snapshot v%d: %s is %s, want %s", v, c.q, got, c.want))
		}
	}
	if n := snap.Len(); n < 12*hostedComponents || n > 12*hostedComponents+hostedUFacts+hostedComponents {
		bad = append(bad, fmt.Sprintf("snapshot v%d holds %d facts", v, n))
	}
	return bad
}

// tally adds the pass's measured operations and checks to res: a wrong or
// garbled answer anywhere, or a failed snapshot check, makes it incorrect.
func (p *passResult) tally(res *result) {
	for _, set := range [][]sample{p.warmup, p.open, p.closed} {
		for _, s := range set {
			for _, f := range s.fails {
				if f.code == failWrong || f.code == failGarbled {
					res.Correct = false
				}
			}
		}
	}
	attempted, failed := p.counts()
	res.Attempted += attempted
	res.Failed += failed
	if len(p.checkpoints) > 0 {
		res.Correct = false
	}
}

// counts sums the operations of the measured phases and their failures.
func (p *passResult) counts() (attempted, failed int) {
	for _, set := range [][]sample{p.open, p.closed} {
		for _, s := range set {
			attempted += s.attempted
			failed += s.failed()
		}
	}
	return attempted, failed
}

// latencies returns the latencies of samples of kind k in ms, failed
// requests as +Inf.
func latencies(ss []sample, k opKind) []float64 {
	var out []float64
	for _, s := range ss {
		if s.kind != k {
			continue
		}
		if s.requestFailed() {
			out = append(out, math.Inf(1))
		} else {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// endToEndMetrics are the metrics a --trace 0 run reports, in order.
var endToEndMetrics = []struct{ name, unit string }{
	{"solve_p50_ms", "ms"},
	{"solve_p90_ms", "ms"},
	{"verdicts_per_s", "1/s"},
	{"cpu_ms_per_verdict", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// window is the width of the windows the closed-loop phase is cut into:
// latency percentiles are computed per window and the median over the
// windows is reported, so a burst of interference on the shared host moves
// a few windows and not the result.
const window = time.Second

// minPerWindow is the fewest samples a window's percentiles rest on.
const minPerWindow = 50

// windowed cuts the samples into consecutive windows of the phase by
// offset and returns the median of f over the full windows. A phase
// shorter than two windows, or with fewer than minPerWindow samples per
// window (a batch workload), is one window.
func windowed(ss []sample, phase time.Duration, offset func(sample) time.Duration, f func([]sample) float64) float64 {
	n := int(phase / window)
	if n < 2 || len(ss) < n*minPerWindow {
		return f(ss)
	}
	wins := make([][]sample, n)
	for _, s := range ss {
		if k := int(offset(s) / window); k < n {
			wins[k] = append(wins[k], s)
		}
	}
	vals := make([]float64, n)
	for k, w := range wins {
		vals[k] = f(w)
	}
	return quantile(vals, 0.5)
}

func startOffset(s sample) time.Duration { return s.at }

// solveKind is the op whose latency the solve_* metrics report: a solve,
// or a whole batch on a batch workload.
func (p *passResult) solveKind() opKind {
	for _, s := range p.closed {
		if s.kind == opBatch {
			return opBatch
		}
	}
	return opSolve
}

// solveLatency is the p-quantile of the closed-loop solve latencies, by
// the window each solve was sent in.
func (p *passResult) solveLatency(q float64) float64 {
	k := p.solveKind()
	return windowed(p.closed, p.closedDur, startOffset, func(ss []sample) float64 { return quantile(latencies(ss, k), q) })
}

func (p *passResult) verdicts() int {
	v := 0
	for _, s := range p.closed {
		v += s.verdicts
	}
	return v
}

func endToEnd(p *passResult, rss float64) map[string]float64 {
	setup := durations(p.setup, func(d time.Duration) float64 { return d.Seconds() })
	return map[string]float64{
		"solve_p50_ms":       p.solveLatency(0.5),
		"solve_p90_ms":       p.solveLatency(0.9),
		"verdicts_per_s":     float64(p.verdicts()) / p.closedTime.Seconds(),
		"cpu_ms_per_verdict": ratio(ms(p.closedCPU), float64(p.verdicts())),
		"setup_s":            quantile(setup, 0.5),
		"rss_peak_mb":        rss,
	}
}

// cpuTimes reads the aggregate steal and total jiffies of this VM from
// /proc/stat (zeros where it cannot be read).
func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// processCPU is the CPU time this process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// failCodes sums the pass's failures by code.
func (p *passResult) failCodes() map[string]int {
	out := map[string]int{}
	for _, set := range [][]sample{p.open, p.closed} {
		for _, s := range set {
			for _, f := range s.fails {
				out[f.code] += f.n
			}
		}
	}
	return out
}

func printHeader(out io.Writer, cfg config, w *workload, st *stream) {
	fmt.Fprintf(out, "e2ebench workload=%s seed=%d seconds=%d trace=%d\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d go=%s temp-dir=%s (%s)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), os.TempDir(), fsType(os.TempDir()))
	fmt.Fprintf(out, "certd: %s\n", settingsLine(w.name))
	fmt.Fprintf(out, "why: %s\n", w.why)
	if w.openRate > 0 {
		fmt.Fprintf(out, "load: open loop, Poisson %.0f/s for %v (%d ops) from %d senders; then closed loop, %d connection(s) back to back for %v\n",
			w.openRate, st.openDur, len(st.sched), nproc, w.conns, st.closedDur)
	} else {
		fmt.Fprintf(out, "load: closed loop, %d connection(s) back to back for %v\n", w.conns, st.closedDur)
	}
	fmt.Fprintf(out, "sizes: %s\n", sizesLine(w, st))
	fmt.Fprintf(out, "stream: %d warm-up + %d ops, sha256 %s\n", len(st.warmup), len(st.ops), st.hash)
}

// sizesLine states the workload's working set next to certd's caches
// (verdict cache 4096, plan cache 1024, shard memo 4096).
func sizesLine(w *workload, st *stream) string {
	switch w.name {
	case "solve-inline":
		return fmt.Sprintf("%d distinct inline DBs (25-1000 facts) cycled, against verdict cache 4096 (never hits); "+
			"5 query shapes against plan cache 1024; no shard memo", len(st.ops))
	case "hosted-rw":
		return fmt.Sprintf("hosted DB of %d components (%d facts) + U(%d facts), %d shards against shard memo 4096; "+
			"2 query shapes against plan cache 1024 and verdict cache 4096", hostedComponents, 12*hostedComponents, hostedUFacts, hostedComponents)
	default:
		return fmt.Sprintf("%d batches x %d items (%d distinct items) over %d relation groups: about half per worker against verdict cache 4096; "+
			"%d query shapes against plan cache 1024", len(st.ops), groupsPerBatch*itemsPerGroup, len(st.ops)*groupsPerBatch*itemsPerGroup,
			batchGroupIDs, batchGroupIDs)
	}
}

func printPass(out io.Writer, label string, p *passResult, e2e map[string]float64) {
	fmt.Fprintf(out, "%s pass:\n", label)
	for _, m := range endToEndMetrics {
		fmt.Fprintf(out, "  %-16s %14.4f %s\n", m.name, e2e[m.name], m.unit)
	}
	attempted, failed := p.counts()
	codes := p.failCodes()
	var parts []string
	for c, n := range codes {
		parts = append(parts, fmt.Sprintf("%s=%d", c, n))
	}
	sort.Strings(parts)
	fmt.Fprintf(out, "  fail_ratio %.6f (%d/%d) %s\n", ratio(float64(failed), float64(attempted)), failed, attempted, strings.Join(parts, " "))
	fmt.Fprintf(out, "  host steal %.1f%% of CPU time in the closed loop\n", 100*p.closedSteal)
	if len(p.open) > 0 {
		lags := p.lags()
		lag99 := quantile(lags, 0.99)
		valid := "valid"
		if lag99 > ms(maxGenLag) {
			valid = fmt.Sprintf("INVALID: more than 1%% of sends left over %v late", maxGenLag)
		}
		fmt.Fprintf(out, "  open loop: solve p50 %.3f p90 %.3f ms, host steal %.1f%%, generator lag p50 %.3f p99 %.3f max %.3f ms (%s)\n",
			quantile(latencies(p.open, opSolve), 0.5), quantile(latencies(p.open, opSolve), 0.9), 100*p.openSteal,
			quantile(lags, 0.5), lag99, quantile(lags, 1), valid)
	}
	setup := durations(p.setup, ms)
	sort.Float64s(setup)
	fmt.Fprintf(out, "  setup reps ms %.2f\n", setup)
	for _, c := range p.checkpoints {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", c)
	}
}

// maxGenLag is how late an idle sender may send; a run where more than 1%
// of open-loop sends were later is marked invalid. The generator shares the
// process's cores with certd, so a send can wait out a preemption slice
// (10ms) now and then; twice that means it fell behind.
const maxGenLag = 20 * time.Millisecond

// lags returns the generator's lateness in ms for each open-loop op.
func (p *passResult) lags() []float64 {
	out := make([]float64, len(p.open))
	for i, s := range p.open {
		out[i] = ms(s.lag)
	}
	return out
}
