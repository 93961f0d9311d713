package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/lru"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/solver"
)

func decodeStatsz(t *testing.T, s *Server) StatszResponse {
	t.Helper()
	rec := doJSON(t, s, nil, "GET", "/v1/statsz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("statsz = %d", rec.Code)
	}
	var out StatszResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVerdictCacheHit: a repeated hosted solve with a conclusive verdict is
// served from the cache with Cached=true, and /v1/statsz shows the hit.
func TestVerdictCacheHit(t *testing.T) {
	s, _ := newHostedServer(t, nil, Config{Registry: obs.NewRegistry()})
	mutateHosted(t, s, "POST", "R(a | b), R(a | c)")
	req := SolveRequest{Query: "R(x | y)"}

	first := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req))
	if first.Cached {
		t.Fatal("first solve must not be cached")
	}
	if first.Verdict.Outcome != solver.OutcomeCertain {
		t.Fatalf("verdict = %+v, want certain", first.Verdict)
	}

	second := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req))
	if !second.Cached {
		t.Fatal("second solve must hit the verdict cache")
	}
	if second.Verdict.Outcome != first.Verdict.Outcome || second.Verdict.Result.Certain != first.Verdict.Result.Certain {
		t.Fatalf("cached verdict %+v differs from solved %+v", second.Verdict, first.Verdict)
	}

	// A renamed-variable query over the same snapshot: canonical key plus
	// relation versions still hit.
	renamed := SolveRequest{Query: "R(p | q)"}
	third := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", renamed))
	if !third.Cached {
		t.Fatal("isomorphic query over the same snapshot must hit")
	}

	// Different content must miss.
	mutateHosted(t, s, "POST", "R(d | e)")
	fourth := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req))
	if fourth.Cached {
		t.Fatal("different database content must miss")
	}

	st := decodeStatsz(t, s)
	if st.Verdicts.Hits != 2 || st.Verdicts.Len != 2 {
		t.Fatalf("verdict stats = %+v, want 2 hits over 2 entries", st.Verdicts)
	}
	// Every request, cached or not, resolved through the one plan.
	if st.Plans.Len != 1 || st.Plans.Misses != 1 || st.Plans.Hits != 3 {
		t.Fatalf("plan stats = %+v, want one compiled plan with 1 miss and 3 hits", st.Plans)
	}
}

// TestInlineSolvesHashNothing: inline databases are one-shot, so a
// stateless /v1/solve and a batch of inline items compute no content
// digest and never consult a verdict cache — on a stateless server, and on
// a hosted one whose cache they must bypass.
func TestInlineSolvesHashNothing(t *testing.T) {
	digests := obs.Default.Counter("db_digest_computations_total")
	stateless := New(Config{Registry: obs.NewRegistry()})
	hosted, _ := newStoreServer(t, nil)
	mutateHosted(t, hosted, "POST", "R(a | b) S(b | c)")
	for name, s := range map[string]*Server{"stateless": stateless, "hosted": hosted} {
		before := digests.Value()
		for i := 0; i < 2; i++ {
			resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve",
				SolveRequest{Query: "R(x | y), S(y | z)", DB: "R(a | b) R(a | b2) S(b | c)"}))
			if resp.Cached || resp.Verdict.Outcome != solver.OutcomeNotCertain {
				t.Fatalf("%s inline solve %d: cached=%v outcome %v, want a fresh not-certain", name, i, resp.Cached, resp.Verdict.Outcome)
			}
		}
		batch := decodeBatch(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", batchFixture()))
		for _, it := range batch.Results {
			if it.Cached {
				t.Errorf("%s inline batch item %d served from a cache", name, it.Index)
			}
		}
		if got := digests.Value() - before; got != 0 {
			t.Errorf("%s: inline solves computed %d content digests, want 0", name, got)
		}
		if st := decodeStatsz(t, s).Verdicts; st.Hits+st.Misses != 0 {
			t.Errorf("%s: inline solves made %d verdict-cache lookups, want 0", name, st.Hits+st.Misses)
		}
	}
	if st := decodeStatsz(t, stateless).Verdicts; st != (lru.Stats{}) {
		t.Errorf("stateless verdicts = %+v, want all-zero: the cache is hosted-only", st)
	}
}

// TestPlanResolvedOncePerQuery: classify, solve and batch requests all read
// their query's classification off one compiled plan, so renamings of a
// classified query compile nothing more, and each request resolves the plan
// at most once (a batch item at most twice: the handler and the batch
// solver).
func TestPlanResolvedOncePerQuery(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	rec := doJSON(t, s, nil, "POST", "/v1/classify", ClassifyRequest{Query: "R(x | y), S(y | z)"})
	if rec.Code != http.StatusOK {
		t.Fatalf("classify = %d: %s", rec.Code, rec.Body)
	}
	if st := decodeStatsz(t, s).Plans; st.Misses != 1 || st.Len != 1 {
		t.Fatalf("after classify: plan stats %+v, want 1 miss over 1 plan", st)
	}
	decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve",
		SolveRequest{Query: "S(b | c), R(a | b)", DB: "R(1 | 2) S(2 | 3)"}))
	batch := decodeBatch(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", BatchSolveRequest{
		Items: []BatchSolveItem{{Query: "R(p | q), S(q | r)", DB: "R(1 | 2) R(1 | 4) S(2 | 3)"}},
	}))
	if it := batch.Results[0]; it.Error != nil || it.Verdict == nil {
		t.Fatalf("batch item = %+v, want a verdict", it)
	}
	st := decodeStatsz(t, s).Plans
	if st.Misses != 1 || st.Len != 1 {
		t.Fatalf("after solve and batch: plan stats %+v, want still 1 miss over 1 plan", st)
	}
	if lookups := st.Hits + st.Misses; lookups > 4 {
		t.Fatalf("%d plan lookups for classify + solve + one batch item, want at most 4", lookups)
	}
}

// TestVerdictCacheHitClampReport: a verdict served from the cache still
// reports the policy's clamp of the request's limits, exactly as the solve
// that filled the cache did.
func TestVerdictCacheHitClampReport(t *testing.T) {
	s, _ := newHostedServer(t, nil, Config{Registry: obs.NewRegistry(), Policy: govern.Policy{MaxBudget: 1 << 20, MaxTimeout: 5 * time.Second}})
	mutateHosted(t, s, "POST", "R(a | b), R(a | c)")
	req := SolveRequest{Query: "R(x | y)", Budget: 1 << 30, TimeoutMS: 60_000}
	want := ClampReport{Timeout: true, Budget: true, TimeoutMS: 5000, BudgetVal: 1 << 20}
	first := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req))
	if first.Cached || first.Clamped == nil || *first.Clamped != want {
		t.Fatalf("first solve: cached=%v Clamped=%+v, want a fresh solve reporting %+v", first.Cached, first.Clamped, want)
	}
	second := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req))
	if !second.Cached {
		t.Fatal("second solve must hit the verdict cache")
	}
	if second.Clamped == nil || *second.Clamped != want {
		t.Fatalf("cache hit: Clamped = %+v, want %+v", second.Clamped, want)
	}
}

// TestInconclusiveVerdictsNotCached: budget cutoffs must be recomputed —
// they depend on the request's limits.
func TestInconclusiveVerdictsNotCached(t *testing.T) {
	s, _ := newHostedServer(t, nil, Config{Registry: obs.NewRegistry(), Policy: govern.Policy{MaxBudget: 1 << 20}})
	mutateHosted(t, s, "POST", oddRingText(21))
	hard := SolveRequest{Query: q0Text(), Budget: 60, DegradeSamples: 10, SampleSeed: 1}
	for i := 0; i < 2; i++ {
		resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", hard))
		if resp.Cached {
			t.Fatalf("request %d: cut-off verdict must not be served from cache", i)
		}
		if !errors.Is(resp.Verdict.Err, govern.ErrBudget) {
			t.Fatalf("request %d err = %v, want budget cutoff", i, resp.Verdict.Err)
		}
	}
	if st := decodeStatsz(t, s); st.Verdicts.Len != 0 {
		t.Fatalf("verdict cache holds %d entries, want 0", st.Verdicts.Len)
	}
}

// TestVerdictCacheBounded: the cache evicts at capacity.
func TestVerdictCacheBounded(t *testing.T) {
	s, _ := newHostedServer(t, nil, Config{Registry: obs.NewRegistry(), VerdictCacheSize: 2})
	mutateHosted(t, s, "POST", "R(a | b) S(c | d) U(e | f)")
	queries := []string{"R(x | y)", "S(x | y)", "U(x | y)"}
	for _, q := range queries {
		decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: q}))
	}
	st := decodeStatsz(t, s)
	if st.Verdicts.Len != 2 || st.Verdicts.Evictions != 1 {
		t.Fatalf("verdict stats = %+v, want len 2 with 1 eviction", st.Verdicts)
	}
	// The evicted (oldest) instance misses and is re-solved.
	resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: queries[0]}))
	if resp.Cached {
		t.Fatal("evicted entry must be re-solved")
	}
}

// TestVerdictCacheDisabled: a negative size turns memoization off.
func TestVerdictCacheDisabled(t *testing.T) {
	s, _ := newHostedServer(t, nil, Config{Registry: obs.NewRegistry(), VerdictCacheSize: -1})
	mutateHosted(t, s, "POST", "R(a | b), R(a | c)")
	req := SolveRequest{Query: "R(x | y)"}
	decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req))
	resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req))
	if resp.Cached {
		t.Fatal("verdict caching must be disabled")
	}
	if st := decodeStatsz(t, s); st.Verdicts.Cap != 0 {
		t.Fatalf("disabled cache reports %+v", st.Verdicts)
	}
}

// TestCachesConcurrent hammers the same and distinct hosted instances from
// many goroutines; run under -race this validates the serving-layer
// locking.
func TestCachesConcurrent(t *testing.T) {
	s, _ := newHostedServer(t, nil, Config{Registry: obs.NewRegistry(), Workers: 4})
	mutateHosted(t, s, "POST", "R(a | b), R(a | c), S(a | b), T(b | c)")
	reqs := []SolveRequest{
		{Query: "R(x | y)"},
		{Query: "R(p | q)"},
		{Query: "S(x | y), T(y | z)"},
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				rec := doJSON(t, s, nil, "POST", "/v1/solve", reqs[(i+j)%len(reqs)])
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := decodeStatsz(t, s)
	if st.Verdicts.Hits == 0 || st.Plans.Len != 2 {
		t.Fatalf("stats after hammering: %+v", st)
	}
}
