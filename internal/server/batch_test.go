package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/cqa-go/certainty/internal/obs"
)

// batchFixture returns a mixed batch over the FO join query: certain,
// uncertain, malformed, and one self-join (unsupported) item.
func batchFixture() BatchSolveRequest {
	return BatchSolveRequest{
		Query: "R(x | y), S(y | z)",
		Items: []BatchSolveItem{
			{DB: "R(a | b) S(b | c)"},
			{DB: "R(a | b) R(a | b2) S(b | c)"},
			{Query: "R(x |", DB: "R(a | b)"},
			{Query: "R(x | y), R(y | z)", DB: "R(a | b)"},
			{DB: "R(a | b) S(b | c) S(b | c2)"},
		},
	}
}

func decodeBatch(t *testing.T, rec *httptest.ResponseRecorder) BatchSolveResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp BatchSolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response %s: %v", rec.Body, err)
	}
	return resp
}

func TestBatchEndpoint(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	rec := doJSON(t, s, nil, "POST", "/v1/solve/batch", batchFixture())
	resp := decodeBatch(t, rec)
	if len(resp.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(resp.Results))
	}
	wantCertain := []struct {
		certain bool
		errCode string
	}{
		{certain: true},
		{certain: false},
		{errCode: CodeMalformed},
		{errCode: CodeUnsupported},
		{certain: true},
	}
	for i, want := range wantCertain {
		r := resp.Results[i]
		if r.Index != i {
			t.Errorf("results[%d].Index = %d", i, r.Index)
		}
		if want.errCode != "" {
			if r.Error == nil || r.Error.Code != want.errCode {
				t.Errorf("item %d: error = %+v, want code %q", i, r.Error, want.errCode)
			}
			continue
		}
		if r.Error != nil {
			t.Fatalf("item %d: unexpected error %v", i, r.Error)
		}
		if r.Verdict == nil || r.Verdict.Result.Certain != want.certain {
			t.Errorf("item %d: verdict %+v, want certain=%v", i, r.Verdict, want.certain)
		}
	}
	// Individual /v1/solve answers must agree item for item.
	for i, it := range batchFixture().Items {
		if wantCertain[i].errCode != "" {
			continue
		}
		body := SolveRequest{Query: "R(x | y), S(y | z)", DB: it.DB}
		if it.Query != "" {
			body.Query = it.Query
		}
		single := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", body))
		if single.Verdict.Result.Certain != resp.Results[i].Verdict.Result.Certain {
			t.Errorf("item %d: batch and single verdicts disagree", i)
		}
	}
}

func TestBatchSharded(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	req := batchFixture()
	plain := decodeBatch(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", req))
	req.Shards = 4
	sharded := decodeBatch(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", req))
	for i := range plain.Results {
		p, q := plain.Results[i], sharded.Results[i]
		if (p.Verdict == nil) != (q.Verdict == nil) {
			t.Fatalf("item %d: sharded batch changed error/verdict shape", i)
		}
		if p.Verdict != nil && p.Verdict.Result.Certain != q.Verdict.Result.Certain {
			t.Errorf("item %d: sharded verdict differs", i)
		}
	}
}

func TestBatchStreamNDJSON(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	req := batchFixture()
	req.Stream = true
	rec := doJSON(t, s, nil, "POST", "/v1/solve/batch", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ndjsonContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ndjsonContentType)
	}
	seen := make(map[int]BatchItemResult)
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var item BatchItemResult
		if err := json.Unmarshal(line, &item); err != nil {
			t.Fatalf("decode line %q: %v", line, err)
		}
		if _, dup := seen[item.Index]; dup {
			t.Fatalf("item %d streamed twice", item.Index)
		}
		seen[item.Index] = item
	}
	if len(seen) != 5 {
		t.Fatalf("streamed %d items, want 5", len(seen))
	}
	if seen[0].Verdict == nil || !seen[0].Verdict.Result.Certain {
		t.Errorf("item 0: %+v, want certain verdict", seen[0])
	}
	if seen[2].Error == nil || seen[2].Error.Code != CodeMalformed {
		t.Errorf("item 2: %+v, want malformed error", seen[2])
	}
}

// The Accept header alone selects streaming, with no body flag.
func TestBatchStreamViaAcceptHeader(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	data, err := json.Marshal(batchFixture())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/solve/batch", bytes.NewReader(data))
	req.Header.Set("Accept", ndjsonContentType)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != ndjsonContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ndjsonContentType)
	}
	if lines := strings.Count(rec.Body.String(), "\n"); lines != 5 {
		t.Fatalf("streamed %d lines, want 5", lines)
	}
}

func TestBatchValidation(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry(), MaxBatchItems: 2})
	decodeError(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", BatchSolveRequest{}),
		http.StatusBadRequest, CodeMalformed)
	big := BatchSolveRequest{Query: "R(x | y)", DB: "R(a | b)",
		Items: []BatchSolveItem{{}, {}, {}}}
	decodeError(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", big),
		http.StatusUnprocessableEntity, CodePolicy)
}

// A batch populates the verdict cache, and a repeated batch serves from it.
func TestBatchVerdictCacheReuse(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	req := BatchSolveRequest{
		Query: "R(x | y), S(y | z)",
		Items: []BatchSolveItem{{DB: "R(a | b) S(b | c)"}},
	}
	first := decodeBatch(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", req))
	if first.Results[0].Cached {
		t.Fatal("first batch reported a cache hit")
	}
	second := decodeBatch(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", req))
	if !second.Results[0].Cached {
		t.Fatal("second batch did not reuse the cached verdict")
	}
	if second.Results[0].Verdict.Result.Certain != first.Results[0].Verdict.Result.Certain {
		t.Fatal("cached verdict differs")
	}
}

func TestBatchDrainingRefused(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	s.BeginDrain()
	decodeError(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", batchFixture()),
		http.StatusServiceUnavailable, CodeShutdown)
}

// TestLegacyPathsGone: the pre-/v1 aliases were retired, so their paths
// are no longer routed.
func TestLegacyPathsGone(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	for _, tc := range []struct{ method, path string }{
		{"POST", "/solve"},
		{"POST", "/solve/batch"},
		{"POST", "/classify"},
		{"GET", "/statsz"},
	} {
		var body any
		if tc.method == "POST" {
			body = SolveRequest{Query: "R(x | y)", DB: "R(a | b)"}
		}
		if rec := doJSON(t, s, nil, tc.method, tc.path, body); rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, rec.Code)
		}
	}
}

// Batch metrics: the batch counter and the per-item verdict counters move.
func TestBatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	decodeBatch(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", batchFixture()))
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		`certd_batch_total 1`,
		`certd_batch_items_total{verdict="certain"} 2`,
		`certd_batch_items_total{verdict="not-certain"} 1`,
		`certd_solve_total{class="fo",verdict="certain"} 2`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q\n%s", want, page)
		}
	}
}
