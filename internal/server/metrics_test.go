package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/intern"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/solver"
)

// scrapeMetrics GETs /metrics and returns the non-comment sample lines as a
// map from "name{labels}" to the rendered value.
func scrapeMetrics(t *testing.T, s *Server) map[string]string {
	t.Helper()
	rec := doJSON(t, s, nil, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	samples := make(map[string]string)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		samples[line[:i]] = line[i+1:]
	}
	return samples
}

// TestMetricsGolden drives a scripted request sequence through the handler
// and asserts the exact counter values and label sets on /metrics: an FO
// request lands on the class="fo" counter, a repeat is served by the verdict
// cache without a second latency observation, a breaker-open short circuit
// lands on the degraded-verdict counter, and a malformed body lands on the
// rejection counter.
func TestMetricsGolden(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	cfg := Config{
		Registry:         obs.NewRegistry(),
		Workers:          1,
		BreakerThreshold: 1,
		BreakerCooldown:  5 * time.Second,
	}
	cfg.now = clock.Now
	cfg.solve = func(ctx context.Context, q cq.Query, d *db.DB, opts solver.Options) (solver.Verdict, error) {
		if len(q.Atoms) == 1 { // the FO query concludes
			return solver.Verdict{Outcome: solver.OutcomeCertain, Result: solver.Result{Certain: true}}, nil
		}
		// The hard query is always cut off by its budget.
		return solver.Verdict{Outcome: solver.OutcomeUnknown, Err: govern.ErrBudget}, nil
	}
	s := New(cfg)
	fo := SolveRequest{Query: "R(x | y)", DB: "R(a | b), R(a | c)"}
	hard := SolveRequest{Query: q0Text(), DB: oddRingText(3), DegradeSamples: 8, SampleSeed: 1}

	decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", fo)) // computed, cached
	second := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", fo))
	if !second.Cached {
		t.Fatal("second FO solve must be served from the verdict cache")
	}
	// Cutoff trips the coNP breaker (threshold 1) ...
	decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", hard))
	// ... so the next hard request short-circuits to a degraded verdict.
	open := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", hard))
	if open.Breaker != BreakerOpen {
		t.Fatalf("Breaker = %q, want open", open.Breaker)
	}
	// A malformed body lands on the rejection counter.
	req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader("{"))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", rec.Code)
	}

	samples := scrapeMetrics(t, s)
	want := map[string]string{
		`certd_solve_total{class="fo",verdict="certain"}`:             "2",
		`certd_solve_total{class="conp-complete",verdict="unknown"}`:  "1",
		`certd_solve_total{class="conp-complete",verdict="degraded"}`: "1",
		`certd_rejections_total{code="malformed"}`:                    "1",
		`certd_solve_seconds_count{class="fo"}`:                       "1", // cached repeat observes no latency
		`certd_solve_seconds_count{class="conp-complete"}`:            "2",
		`certd_inflight`:                       "0",
		`certd_queued`:                         "0",
		`cache_hits_total{cache="verdicts"}`:   "1",
		`cache_misses_total{cache="verdicts"}`: "3", // first FO + both hard requests
		`cache_entries{cache="verdicts"}`:      "1",
		`cache_hits_total{cache="classify"}`:   "2",
		`cache_misses_total{cache="classify"}`: "2",
	}
	for series, value := range want {
		if got, ok := samples[series]; !ok {
			t.Errorf("series %s missing from /metrics", series)
		} else if got != value {
			t.Errorf("%s = %s, want %s", series, got, value)
		}
	}
	// No unexpected label sets on the solve counter: exactly the three
	// scripted (class, verdict) combinations exist.
	var solveSeries []string
	for series := range samples {
		if strings.HasPrefix(series, "certd_solve_total{") {
			solveSeries = append(solveSeries, series)
		}
	}
	if len(solveSeries) != 3 {
		t.Errorf("certd_solve_total has %d series %v, want 3", len(solveSeries), solveSeries)
	}
}

// TestStatszMatchesLRUStats is the migration regression test: /v1/statsz now
// reads the obs registry, and its numbers must be identical to the
// lru-internal counters that backed it before — occupancy, capacity, hits,
// misses, and evictions for all three caches — over a workload that
// exercises hits, misses, singleflight, and eviction.
func TestStatszMatchesLRUStats(t *testing.T) {
	s := New(Config{
		Registry:         obs.NewRegistry(),
		VerdictCacheSize: 2,
		Policy:           govern.Policy{MaxBudget: 1 << 20},
	})
	reqs := []SolveRequest{
		{Query: "R(x | y)", DB: "R(a | b), R(a | c)"},
		{Query: "R(x | y)", DB: "R(a | b), R(a | c)"}, // verdict-cache hit
		{Query: "R(p | q)", DB: "R(a | c), R(a | b)"}, // isomorphic: plan + verdict hit
		{Query: "S(x | y), T(y | z)", DB: "S(a | b), T(b | c)"},
		{Query: "R(x | y)", DB: "R(d | e)"}, // third verdict entry: evicts
	}
	for i, req := range reqs {
		if rec := doJSON(t, s, nil, "POST", "/v1/solve", req); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, rec.Code, rec.Body)
		}
	}
	got := decodeStatsz(t, s)
	if want := s.classify.Stats(); got.Classify != want {
		t.Errorf("classify stats = %+v, lru reports %+v", got.Classify, want)
	}
	if want := s.plans.Stats(); got.Plans != want {
		t.Errorf("plans stats = %+v, lru reports %+v", got.Plans, want)
	}
	if want := s.verdicts.stats(); got.Verdicts != want {
		t.Errorf("verdicts stats = %+v, lru reports %+v", got.Verdicts, want)
	}
	if got.Verdicts.Evictions == 0 || got.Verdicts.Hits == 0 {
		t.Errorf("workload must exercise hits and evictions, got %+v", got.Verdicts)
	}
}

// TestInternStatsGolden: a hosted server reports the exact symbol-interner
// census of its database's columnar view on both /v1/statsz and the
// certd_intern_* gauges; a stateless server reports zeros.
func TestInternStatsGolden(t *testing.T) {
	s, st := newStoreServer(t, nil)
	// R, a, b, b2: 4 symbols. The duplicate "a" key is the view's one
	// build-time hit (relation names and fresh values all miss first).
	mut := DBMutateRequest{Facts: "R(a | b), R(a | b2)"}
	decodeMutate(t, doJSON(t, s, nil, "POST", "/v1/db/facts", mut))

	d, _ := st.DB()
	want := d.Interned().Stats()
	if want.Symbols != 4 {
		t.Fatalf("hosted view interned %d symbols, want 4", want.Symbols)
	}
	got := decodeStatsz(t, s)
	if got.Intern != want {
		t.Fatalf("/v1/statsz intern = %+v, want %+v", got.Intern, want)
	}
	samples := scrapeMetrics(t, s)
	for series, value := range map[string]int64{
		`certd_intern_symbols`:     want.Symbols,
		`certd_intern_table_bytes`: want.TableBytes,
		`certd_intern_hits`:        want.Hits,
		`certd_intern_misses`:      want.Misses,
	} {
		if gotV, ok := samples[series]; !ok {
			t.Errorf("series %s missing from /metrics", series)
		} else if gotV != strconv.FormatInt(value, 10) {
			t.Errorf("%s = %s, want %d", series, gotV, value)
		}
	}

	stateless := New(Config{Registry: obs.NewRegistry()})
	if got := decodeStatsz(t, stateless); got.Intern != (intern.Stats{}) {
		t.Fatalf("stateless /v1/statsz intern = %+v, want zeros", got.Intern)
	}
}

// TestPprofGated: the profiling endpoints exist only when EnablePprof is
// set.
func TestPprofGated(t *testing.T) {
	off := New(Config{Registry: obs.NewRegistry()})
	if rec := doJSON(t, off, nil, "GET", "/debug/pprof/", nil); rec.Code == http.StatusOK {
		t.Fatalf("pprof must be off by default, got %d", rec.Code)
	}
	on := New(Config{Registry: obs.NewRegistry(), EnablePprof: true})
	if rec := doJSON(t, on, nil, "GET", "/debug/pprof/", nil); rec.Code != http.StatusOK {
		t.Fatalf("pprof index = %d, want 200", rec.Code)
	}
}
