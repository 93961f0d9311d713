package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/server"
)

func batchFixture() server.BatchSolveRequest {
	return server.BatchSolveRequest{
		Query: "R(x | y), S(y | z)",
		Items: []server.BatchSolveItem{
			{DB: "R(a | b) S(b | c)"},
			{DB: "R(a | b) R(a | b2) S(b | c)"},
			{Query: "R(x |", DB: "R(a | b)"},
			{DB: "R(a | b) S(b | c) S(b | c2)"},
		},
	}
}

// TestBatchRoundTrip: the client's batch call against a real server returns
// per-item results matching individual solves.
func TestBatchRoundTrip(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(ts.URL)

	resp, err := c.SolveBatch(context.Background(), batchFixture())
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	wantCertain := []bool{true, false, false, true}
	for i, r := range resp.Results {
		if i == 2 {
			if r.Error == nil || r.Error.Code != server.CodeMalformed {
				t.Errorf("item 2: %+v, want malformed error", r)
			}
			continue
		}
		if r.Error != nil {
			t.Fatalf("item %d: %v", i, r.Error)
		}
		if r.Verdict.Result.Certain != wantCertain[i] {
			t.Errorf("item %d: certain = %v, want %v", i, r.Verdict.Result.Certain, wantCertain[i])
		}
	}
}

// TestStreamRoundTrip: the streaming call delivers every item exactly once
// against a real server.
func TestStreamRoundTrip(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(ts.URL)

	seen := make(map[int]int)
	err := c.SolveStream(context.Background(), batchFixture(), func(r server.BatchItemResult) {
		seen[r.Index]++
	})
	if err != nil {
		t.Fatalf("SolveStream: %v", err)
	}
	for i := 0; i < 4; i++ {
		if seen[i] != 1 {
			t.Errorf("item %d delivered %d times, want 1", i, seen[i])
		}
	}
}

// TestBatchPerItemRetry: an item that comes back with a transient
// item-level error is re-solved individually; the caller sees the verdict,
// not the shed.
func TestBatchPerItemRetry(t *testing.T) {
	var solo atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve/batch", func(w http.ResponseWriter, r *http.Request) {
		resp := server.BatchSolveResponse{Results: []server.BatchItemResult{
			{Index: 0, Error: &server.ErrorBody{Code: server.CodeInternal, Message: "worker died"}},
		}}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&resp)
	})
	real := server.New(server.Config{})
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		solo.Add(1)
		real.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)

	req := server.BatchSolveRequest{
		Query: "R(x | y), S(y | z)",
		Items: []server.BatchSolveItem{{DB: "R(a | b) S(b | c)"}},
	}
	resp, err := c.SolveBatch(context.Background(), req)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if solo.Load() == 0 {
		t.Fatal("transient item was not retried individually")
	}
	if resp.Results[0].Error != nil || resp.Results[0].Verdict == nil || !resp.Results[0].Verdict.Result.Certain {
		t.Fatalf("result after per-item retry = %+v, want certain verdict", resp.Results[0])
	}
}

// TestBatchPermanentItemNotRetried: malformed items are not re-solved.
func TestBatchPermanentItemNotRetried(t *testing.T) {
	var solo atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve/batch", func(w http.ResponseWriter, r *http.Request) {
		resp := server.BatchSolveResponse{Results: []server.BatchItemResult{
			{Index: 0, Error: &server.ErrorBody{Code: server.CodeMalformed, Message: "query: bad"}},
		}}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&resp)
	})
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		solo.Add(1)
		http.Error(w, "unexpected", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)

	resp, err := c.SolveBatch(context.Background(), server.BatchSolveRequest{
		Items: []server.BatchSolveItem{{Query: "R(x |", DB: "R(a | b)"}},
	})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if solo.Load() != 0 {
		t.Fatal("permanent item error triggered a pointless retry")
	}
	if resp.Results[0].Error == nil || resp.Results[0].Error.Code != server.CodeMalformed {
		t.Fatalf("result = %+v, want the original malformed error", resp.Results[0])
	}
}

// TestStreamWholeRequestRetry: a shed before any item was delivered retries
// the whole stream.
func TestStreamWholeRequestRetry(t *testing.T) {
	var calls atomic.Int64
	real := server.New(server.Config{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve/batch", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(&server.ErrorBody{Code: server.CodeShed, RetryAfterMS: 1})
			return
		}
		real.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)
	c.sleep = func(context.Context, time.Duration) error { return nil }

	var n int
	err := c.SolveStream(context.Background(), batchFixture(), func(server.BatchItemResult) { n++ })
	if err != nil {
		t.Fatalf("SolveStream: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("batch endpoint called %d times, want 2", calls.Load())
	}
	if n != 4 {
		t.Fatalf("delivered %d items, want 4", n)
	}
}

// TestStreamOutOfRangeIndex: a transient item error under an index the
// batch does not have is delivered as it came, not retried as a solve of
// an item that does not exist.
func TestStreamOutOfRangeIndex(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = json.NewEncoder(w).Encode(server.BatchItemResult{Index: 7, Error: &server.ErrorBody{Code: server.CodeInternal}})
	}))
	defer ts.Close()
	var got []server.BatchItemResult
	err := New(ts.URL).SolveStream(context.Background(), batchFixture(), func(r server.BatchItemResult) {
		got = append(got, r)
	})
	if err != nil {
		t.Fatalf("SolveStream: %v", err)
	}
	if len(got) != 1 || got[0].Index != 7 || got[0].Error == nil || got[0].Error.Code != server.CodeInternal {
		t.Fatalf("delivered %+v, want index 7's internal error as it came", got)
	}
}

// TestStreamLongLines: the stream's line buffer starts small and grows to
// MaxResponseBytes, so a result line past 64 KiB but within the limit
// decodes, while one over the limit fails the stream without replaying the
// items delivered before it.
func TestStreamLongLines(t *testing.T) {
	const limit = 256 << 10
	for _, tc := range []struct {
		name    string
		message int // the length of item 1's error message
		fails   bool
	}{
		{"within the limit", 100 << 10, false},
		{"over the limit", 300 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.Header().Set("Content-Type", "application/x-ndjson")
				enc := json.NewEncoder(w)
				_ = enc.Encode(server.BatchItemResult{Index: 0, Error: &server.ErrorBody{Code: server.CodeMalformed}})
				_ = enc.Encode(server.BatchItemResult{Index: 1, Error: &server.ErrorBody{
					Code: server.CodeUnsupported, Message: strings.Repeat("x", tc.message),
				}})
				_ = enc.Encode(server.BatchItemResult{Index: 2, Error: &server.ErrorBody{Code: server.CodeMalformed}})
			}))
			defer ts.Close()
			c := New(ts.URL)
			c.MaxResponseBytes = limit
			c.sleep = func(context.Context, time.Duration) error { return nil }

			seen := make(map[int]int)
			err := c.SolveStreamBody(context.Background(), []byte(`{"items":[{},{},{}]}`), func(r server.BatchItemResult) {
				seen[r.Index]++
				if r.Index == 1 && len(r.Error.Message) != tc.message {
					t.Errorf("item 1 carries a %d-byte message, want %d", len(r.Error.Message), tc.message)
				}
			})
			if calls.Load() != 1 {
				t.Fatalf("batch endpoint called %d times, want 1", calls.Load())
			}
			if tc.fails {
				if err == nil || !strings.Contains(err.Error(), "token too long") {
					t.Fatalf("SolveStreamBody = %v, want a token-too-long stream error", err)
				}
				if seen[0] != 1 || seen[1] != 0 || seen[2] != 0 {
					t.Fatalf("delivered %v, want item 0 once and nothing after the long line", seen)
				}
				return
			}
			if err != nil {
				t.Fatalf("SolveStreamBody: %v", err)
			}
			for i := 0; i < 3; i++ {
				if seen[i] != 1 {
					t.Fatalf("item %d delivered %d times, want 1", i, seen[i])
				}
			}
		})
	}
}
