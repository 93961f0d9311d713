package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/solver"
	"github.com/cqa-go/certainty/internal/wal"
)

// fuzzServerConfig bounds every fuzzed solve: a step budget and a deadline
// under policy, a short degradation pass, and no breakers, so a cut-off
// item never changes how a later one is served.
func fuzzServerConfig() Config {
	return Config{
		Workers:          2,
		QueueDepth:       8,
		Policy:           govern.Policy{MaxBudget: 1 << 16, MaxTimeout: 2 * time.Second},
		BreakerThreshold: -1,
		DegradeSamples:   16,
		SampleTimeout:    20 * time.Millisecond,
		Registry:         obs.NewRegistry(),
	}
}

// knownCodes are the error codes a batch response may carry, for the
// request or for one item.
var knownCodes = map[string]bool{
	CodeMalformed: true, CodeUnsupported: true, CodePolicy: true, CodeShed: true,
	CodeShutdown: true, CodeInternal: true,
}

// batchEnvelope checks that rec is a typed batch envelope for a request of
// n items: a 200 whose results (JSON, or NDJSON when streamed) cover every
// index once with exactly one of verdict and error, or a typed ErrorBody
// whose code is internal exactly when the status is 500. It returns the
// results by index, nil for an error response.
func batchEnvelope(t *testing.T, rec *httptest.ResponseRecorder, n int, stream bool) []BatchItemResult {
	t.Helper()
	if rec.Code != http.StatusOK {
		var body ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("status %d with an untyped body %q: %v", rec.Code, rec.Body, err)
		}
		if !knownCodes[body.Code] || (rec.Code == http.StatusInternalServerError) != (body.Code == CodeInternal) {
			t.Fatalf("status %d carries error code %q", rec.Code, body.Code)
		}
		return nil
	}
	var results []BatchItemResult
	if stream {
		sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			var r BatchItemResult
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("NDJSON line %q: %v", sc.Bytes(), err)
			}
			results = append(results, r)
		}
	} else {
		var resp BatchSolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("batch response %q: %v", rec.Body, err)
		}
		results = resp.Results
	}
	if len(results) != n {
		t.Fatalf("%d results for %d items: %s", len(results), n, rec.Body)
	}
	byIndex := make([]BatchItemResult, n)
	seen := make([]bool, n)
	for i, r := range results {
		if r.Index < 0 || r.Index >= n || seen[r.Index] || (!stream && r.Index != i) {
			t.Fatalf("result %d has index %d: %s", i, r.Index, rec.Body)
		}
		seen[r.Index] = true
		if (r.Verdict == nil) == (r.Error == nil) {
			t.Fatalf("item %d carries %v verdict and %v error, want exactly one", r.Index, r.Verdict != nil, r.Error != nil)
		}
		if r.Error != nil && !knownCodes[r.Error.Code] {
			t.Fatalf("item %d error code %q", r.Index, r.Error.Code)
		}
		byIndex[r.Index] = r
	}
	return byIndex
}

func conclusive(r BatchItemResult) bool {
	return r.Verdict != nil && (r.Verdict.Outcome == solver.OutcomeCertain || r.Verdict.Outcome == solver.OutcomeNotCertain)
}

// fuzzServers returns the servers a fuzz target drives: a stateless one,
// and one hosting a small database on a store in a temporary directory.
func fuzzServers(f *testing.F) []*Server {
	st, err := wal.Open(wal.Options{Dir: f.TempDir(), Fsync: wal.FsyncNever, Registry: obs.NewRegistry()})
	if err != nil {
		f.Fatalf("wal.Open: %v", err)
	}
	f.Cleanup(func() { st.Close() })
	cfg := fuzzServerConfig()
	cfg.Store = st
	if _, _, err := st.Mutate(db.MustParse("R(a | b) R(a | b2) S(b | c) U(k | w) R0(x1 | A) S0(A, z1 | x1)").Facts(), nil, -1); err != nil {
		f.Fatalf("seed the hosted database: %v", err)
	}
	return []*Server{New(fuzzServerConfig()), New(cfg)}
}

// FuzzServerBatch drives POST /v1/solve/batch through httptest on a
// stateless and a hosted server with fuzzed query text, database text,
// shards, stream and budget. The batch carries an item with its own query
// and database, one inheriting the request's query, and one without a
// database (the hosted snapshot on the hosted server, an empty database on
// the stateless one). Every response must be a typed envelope, nothing may
// panic, a 500 may only carry code internal, and every item decided
// conclusively both with the fuzzed shards and with shards = 0 must get
// the same answer.
func FuzzServerBatch(f *testing.F) {
	f.Add("R(x | y), S(y | z)", "R(a | b) S(b | c) R(a2 | b2) S(b2 | c2)", 2, false, int64(0))
	f.Add("R(x | y), S(y | z), U(u | v)", "R(a | b) R(a | b2) S(b | c) U(k | w) U(k | w2)", -1, true, int64(0))
	f.Add("R0(x | y), S0(y, z | x)", "R0(x1 | A) R0(x1 | B) S0(A, z1 | x1) S0(B, z1 | x2) R0(x2 | A) S0(A, z2 | x2)", 1, false, int64(3))
	f.Add("R(x | 'A')", "R(PODS | A) R(KDD | A) R(KDD | B)", 7, true, int64(-5))
	f.Add("R(x | y), R(y | z)", "R(a | b) R(b | c)", 0, false, int64(1<<20))
	f.Add("R(x", "R(a | b", 3, true, int64(0))

	servers := fuzzServers(f)

	f.Fuzz(func(t *testing.T, query, dbText string, shards int, stream bool, budget int64) {
		if len(query) > 160 || len(dbText) > 2048 {
			t.Skip("input beyond the fuzzed sizes")
		}
		req := BatchSolveRequest{
			Items:  []BatchSolveItem{{Query: query, DB: dbText}, {DB: dbText}, {Query: query}},
			Query:  query,
			Budget: budget,
			Stream: stream,
		}
		for _, s := range servers {
			req.Shards = shards
			got := batchEnvelope(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", req), len(req.Items), stream)
			req.Shards = 0
			want := batchEnvelope(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", req), len(req.Items), stream)
			if got == nil || want == nil {
				continue
			}
			for i := range got {
				if conclusive(got[i]) && conclusive(want[i]) && got[i].Verdict.Outcome != want[i].Verdict.Outcome {
					t.Fatalf("item %d: outcome %v with shards=%d, %v with shards=0", i, got[i].Verdict.Outcome, shards, want[i].Verdict.Outcome)
				}
			}
		}
	})
}
