package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"

	"github.com/cqa-go/certainty/internal/govern"
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

// TestVerdictCacheHit: a repeated (query, db) instance with a conclusive
// verdict is served from the cache with Cached=true, and /v1/statsz shows the
// hit.
func TestVerdictCacheHit(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	req := SolveRequest{Query: "R(x | y)", DB: "R(a | b), R(a | c)"}

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

	// Same query over a renamed-variable body, same facts in another order:
	// canonical key + content digest still hit.
	renamed := SolveRequest{Query: "R(p | q)", DB: "R(a | c), R(a | b)"}
	third := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", renamed))
	if !third.Cached {
		t.Fatal("isomorphic query over the same content must hit")
	}

	// Different content must miss.
	other := SolveRequest{Query: "R(x | y)", DB: "R(a | b)"}
	fourth := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", other))
	if fourth.Cached {
		t.Fatal("different database content must miss")
	}

	st := decodeStatsz(t, s)
	if st.Verdicts.Hits != 2 || st.Verdicts.Len != 2 {
		t.Fatalf("verdict stats = %+v, want 2 hits over 2 entries", st.Verdicts)
	}
	if st.Plans.Len != 1 {
		t.Fatalf("plan stats = %+v, want one compiled plan", st.Plans)
	}
	if st.Classify.Len != 1 {
		t.Fatalf("classify stats = %+v, want one canonical entry", st.Classify)
	}
}

// TestInconclusiveVerdictsNotCached: budget cutoffs must be recomputed —
// they depend on the request's limits.
func TestInconclusiveVerdictsNotCached(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry(), Policy: govern.Policy{MaxBudget: 1 << 20}})
	hard := SolveRequest{Query: q0Text(), DB: oddRingText(21), Budget: 60, DegradeSamples: 10, SampleSeed: 1}
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
	s := New(Config{Registry: obs.NewRegistry(), VerdictCacheSize: 2})
	dbs := []string{"R(a | b)", "R(c | d)", "R(e | f)"}
	for _, body := range dbs {
		decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y)", DB: body}))
	}
	st := decodeStatsz(t, s)
	if st.Verdicts.Len != 2 || st.Verdicts.Evictions != 1 {
		t.Fatalf("verdict stats = %+v, want len 2 with 1 eviction", st.Verdicts)
	}
	// The evicted (oldest) instance misses and is re-solved.
	resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y)", DB: dbs[0]}))
	if resp.Cached {
		t.Fatal("evicted entry must be re-solved")
	}
}

// TestVerdictCacheDisabled: a negative size turns memoization off.
func TestVerdictCacheDisabled(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry(), VerdictCacheSize: -1})
	req := SolveRequest{Query: "R(x | y)", DB: "R(a | b), R(a | c)"}
	decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req))
	resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req))
	if resp.Cached {
		t.Fatal("verdict caching must be disabled")
	}
	if st := decodeStatsz(t, s); st.Verdicts.Cap != 0 {
		t.Fatalf("disabled cache reports %+v", st.Verdicts)
	}
}

// TestCachesConcurrent hammers the same and distinct instances from many
// goroutines; run under -race this validates the serving-layer locking.
func TestCachesConcurrent(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry(), Workers: 4})
	reqs := []SolveRequest{
		{Query: "R(x | y)", DB: "R(a | b), R(a | c)"},
		{Query: "R(p | q)", DB: "R(a | c), R(a | b)"},
		{Query: "S(x | y), T(y | z)", DB: "S(a | b), T(b | c)"},
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
