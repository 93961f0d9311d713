package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/solver"
)

// oddRingText renders the odd-ring coNP instance for q0 (see
// internal/solver/cancel_test.go): certain iff n is odd, and the exact
// falsifying search needs ≈6n nodes — so a small step budget cuts it off
// deterministically.
func oddRingText(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		xi := fmt.Sprintf("x%d", i)
		xn := fmt.Sprintf("x%d", (i+1)%n)
		zi := fmt.Sprintf("z%d", i)
		fmt.Fprintf(&b, "R0(%s | A)\nR0(%s | B)\n", xi, xi)
		fmt.Fprintf(&b, "S0(A, %s | %s)\nS0(A, %s | %s)\n", zi, xi, zi, xn)
		fmt.Fprintf(&b, "S0(B, %s | %s)\nS0(B, %s | %s)\n", zi, xi, zi, xn)
	}
	return b.String()
}

func q0Text() string { return cq.Q0().String() }

// doJSON runs one request against the server's handler and returns the
// recorder.
func doJSON(t *testing.T, s *Server, ctx context.Context, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(data))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// decodeSolve parses a 200 solve response.
func decodeSolve(t *testing.T, rec *httptest.ResponseRecorder) SolveResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response %s: %v", rec.Body, err)
	}
	return resp
}

// decodeError parses a non-200 error body.
func decodeError(t *testing.T, rec *httptest.ResponseRecorder, wantStatus int, wantCode string) ErrorBody {
	t.Helper()
	if rec.Code != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", rec.Code, wantStatus, rec.Body)
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode error body %s: %v", rec.Body, err)
	}
	if body.Code != wantCode {
		t.Fatalf("error code = %q, want %q (message %q)", body.Code, wantCode, body.Message)
	}
	return body
}

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingSolve returns a solve hook that signals entry on entered and then
// blocks until the gate closes (conclusive verdict) or the context is
// cancelled (partial verdict with Steps=42), mirroring a governed solve.
func blockingSolve(entered chan struct{}, gate chan struct{}) func(context.Context, *solver.Plan, *db.DB, solver.Options) (solver.Verdict, error) {
	return func(ctx context.Context, p *solver.Plan, d *db.DB, opts solver.Options) (solver.Verdict, error) {
		entered <- struct{}{}
		select {
		case <-gate:
			return solver.Verdict{Outcome: solver.OutcomeCertain, Result: solver.Result{Certain: true}}, nil
		case <-ctx.Done():
			return solver.Verdict{
				Outcome:  solver.OutcomeUnknown,
				Err:      ctx.Err(),
				Evidence: &solver.Evidence{Steps: 42},
			}, nil
		}
	}
}

// TestSolveEndToEnd runs real solves through the full handler stack: exact
// FO, exact coNP (small instance), governed cutoff with degraded evidence,
// and policy-clamp reporting.
func TestSolveEndToEnd(t *testing.T) {
	s := New(Config{Policy: govern.Policy{DefaultBudget: 1 << 20, MaxBudget: 1 << 20}})

	rec := doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y)", DB: "R(a | b), R(a | c)"})
	resp := decodeSolve(t, rec)
	if resp.Verdict.Outcome != solver.OutcomeCertain || !resp.Verdict.Result.Certain {
		t.Fatalf("FO verdict = %+v, want certain", resp.Verdict)
	}
	if resp.Clamped == nil || !resp.Clamped.Budget || resp.Clamped.BudgetVal != 1<<20 {
		t.Fatalf("Clamped = %+v, want the defaulted budget reported", resp.Clamped)
	}

	rec = doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: q0Text(), DB: oddRingText(5)})
	resp = decodeSolve(t, rec)
	if resp.Verdict.Outcome != solver.OutcomeCertain {
		t.Fatalf("odd-ring verdict = %+v, want certain", resp.Verdict)
	}
	if resp.Breaker != "" {
		t.Fatalf("Breaker = %q, want none", resp.Breaker)
	}

	rec = doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{
		Query: q0Text(), DB: oddRingText(21), Budget: 60, DegradeSamples: 50, SampleSeed: 1,
	})
	resp = decodeSolve(t, rec)
	v := resp.Verdict
	if v.Outcome != solver.OutcomeUnknown || !errors.Is(v.Err, govern.ErrBudget) {
		t.Fatalf("cut-off verdict = %+v (err %v), want unknown/budget", v, v.Err)
	}
	if v.Evidence == nil || v.Evidence.Samples != 50 || v.Evidence.Estimate != 1 {
		t.Fatalf("Evidence = %+v, want 50 samples at estimate 1", v.Evidence)
	}
}

// TestClassifyAndHealth covers the auxiliary endpoints.
func TestClassifyAndHealth(t *testing.T) {
	s := New(Config{})
	rec := doJSON(t, s, nil, "POST", "/v1/classify", ClassifyRequest{Query: q0Text()})
	if rec.Code != http.StatusOK {
		t.Fatalf("classify status = %d", rec.Code)
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.InP {
		t.Fatalf("q0 classified as tractable: %+v", cr)
	}
	rec = doJSON(t, s, nil, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	rec = doJSON(t, s, nil, "GET", "/readyz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d", rec.Code)
	}
	s.BeginDrain()
	rec = doJSON(t, s, nil, "GET", "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", rec.Code)
	}
	rec = doJSON(t, s, nil, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200 (process is alive)", rec.Code)
	}
}

// TestErrorTaxonomy checks each permanent error class maps to its code and
// status.
func TestErrorTaxonomy(t *testing.T) {
	s := New(Config{Policy: govern.Policy{MaxBudget: 10, Reject: true}})
	req := func(body any) *httptest.ResponseRecorder { return doJSON(t, s, nil, "POST", "/v1/solve", body) }

	decodeError(t, req("not json"), http.StatusBadRequest, CodeMalformed)
	decodeError(t, req(SolveRequest{Query: "R(x |", DB: "R(a | b)"}), http.StatusBadRequest, CodeMalformed)
	decodeError(t, req(SolveRequest{Query: "R(x | y)", DB: "R(a | b)\nR(a, b | c)"}), http.StatusBadRequest, CodeMalformed)
	decodeError(t, req(SolveRequest{Query: "R(x | y), R(y | x)", DB: "R(a | b)"}), http.StatusUnprocessableEntity, CodeUnsupported)
	decodeError(t, req(SolveRequest{Query: "R(x | y)", DB: "R(a | b)", Budget: 100}), http.StatusUnprocessableEntity, CodePolicy)
}

// TestSheddingUnderSaturation is the admission-control half of the
// acceptance criterion: with one worker and a one-deep queue, a third
// concurrent request is shed immediately with 429 + Retry-After, and the
// first two still complete once the pool frees up.
func TestSheddingUnderSaturation(t *testing.T) {
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	cfg := Config{Workers: 1, QueueDepth: 1, RetryAfter: 1500 * time.Millisecond}
	cfg.solve = blockingSolve(entered, gate)
	s := New(cfg)

	var wg sync.WaitGroup
	results := make([]*httptest.ResponseRecorder, 2)
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y)", DB: "R(a | b)"})
		}()
	}
	launch(0)
	<-entered // request 0 holds the only worker
	launch(1)
	waitUntil(t, "request 1 to queue", func() bool { return s.queued.Load() == 1 })

	// Pool full, queue full: request 2 must be shed, not started.
	rec := doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y)", DB: "R(a | b)"})
	body := decodeError(t, rec, http.StatusTooManyRequests, CodeShed)
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After header = %q, want %q (1.5s rounded up)", got, "2")
	}
	if body.RetryAfterMS != 1500 {
		t.Errorf("RetryAfterMS = %d, want 1500", body.RetryAfterMS)
	}

	close(gate)
	wg.Wait()
	for i, rec := range results {
		resp := decodeSolve(t, rec)
		if resp.Verdict.Outcome != solver.OutcomeCertain {
			t.Errorf("request %d verdict = %+v, want certain", i, resp.Verdict)
		}
	}
}

// TestBreakerResilience is the circuit-breaker half of the acceptance
// criterion, end to end with the real solver: repeated budget cutoffs on
// the coNP class trip its breaker; hard requests then get fast degraded
// verdicts while FO requests on the same server still answer exactly; after
// the cooldown a successful probe closes the breaker again.
func TestBreakerResilience(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	cfg := Config{
		Workers:          2,
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Second,
		Policy:           govern.Policy{MaxBudget: 1 << 20},
	}
	cfg.now = clock.Now
	s := New(cfg)
	hard := SolveRequest{Query: q0Text(), DB: oddRingText(21), Budget: 60, DegradeSamples: 50, SampleSeed: 1}

	// Two consecutive budget cutoffs on the hard class.
	for i := 0; i < 2; i++ {
		resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", hard))
		if resp.Breaker != "" {
			t.Fatalf("request %d Breaker = %q, want closed-path solve", i, resp.Breaker)
		}
		if !errors.Is(resp.Verdict.Err, govern.ErrBudget) {
			t.Fatalf("request %d err = %v, want budget cutoff", i, resp.Verdict.Err)
		}
	}

	// Breaker open: the hard request short-circuits to the degraded path —
	// no exact search steps, sampling evidence present, cause "skipped".
	resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", hard))
	if resp.Breaker != BreakerOpen {
		t.Fatalf("Breaker = %q, want open", resp.Breaker)
	}
	if !errors.Is(resp.Verdict.Err, solver.ErrExactSkipped) {
		t.Fatalf("short-circuited err = %v, want ErrExactSkipped", resp.Verdict.Err)
	}
	if ev := resp.Verdict.Evidence; ev == nil || ev.Steps != 0 || ev.Samples == 0 {
		t.Fatalf("short-circuited evidence = %+v, want sampling without search steps", resp.Verdict.Evidence)
	}

	// FO traffic on the same server is unaffected and still exact.
	foResp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve",
		SolveRequest{Query: "R(x | y)", DB: "R(a | b), R(a | c)"}))
	if foResp.Breaker != "" || foResp.Verdict.Outcome != solver.OutcomeCertain {
		t.Fatalf("FO response = %+v, want unaffected exact verdict", foResp)
	}

	// After the cooldown, one probe runs the exact path; with an adequate
	// budget it concludes (odd ring is certain) and closes the breaker.
	clock.Advance(6 * time.Second)
	probe := hard
	probe.Budget = 1 << 20
	resp = decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", probe))
	if resp.Breaker != BreakerProbe {
		t.Fatalf("Breaker = %q, want probe", resp.Breaker)
	}
	if resp.Verdict.Outcome != solver.OutcomeCertain {
		t.Fatalf("probe verdict = %+v, want certain", resp.Verdict)
	}
	resp = decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", probe))
	if resp.Breaker != "" {
		t.Fatalf("post-recovery Breaker = %q, want closed-path solve", resp.Breaker)
	}
}

// TestDegradedReportsPlanClassification: a breaker-open verdict reports the
// same classification as the exact verdict for the same request. The query
// has two strong cycles and atom order decides which one the reason names,
// so both verdicts must take it from the request's plan, which is compiled
// for the query's canonical form.
func TestDegradedReportsPlanClassification(t *testing.T) {
	cfg := Config{BreakerThreshold: 1, VerdictCacheSize: -1}
	cfg.now = (&fakeClock{t: time.Unix(1000, 0)}).Now
	s := New(cfg)
	req := SolveRequest{
		Query:          "T1(u | v), U1(v, w | u), R0(x | y), S0(y, z | x)",
		DB:             oddRingText(5) + "T1(a | b) T1(a | c) U1(b, d | a)",
		Budget:         3,
		DegradeSamples: 8,
		SampleSeed:     1,
	}
	// The exact search is cut off at its budget (the sampler may then find
	// a falsifying repair, which still counts as a cutoff for the breaker).
	exact := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req))
	if ev := exact.Verdict.Evidence; exact.Breaker != "" || ev == nil || ev.Steps == 0 {
		t.Fatalf("first solve: breaker %q evidence %+v, want a cut-off exact search", exact.Breaker, ev)
	}
	open := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req))
	if open.Breaker != BreakerOpen {
		t.Fatalf("second solve: Breaker = %q, want open", open.Breaker)
	}
	want, got := exact.Verdict.Result.Classification, open.Verdict.Result.Classification
	if got.Class != want.Class || got.Reason != want.Reason {
		t.Fatalf("breaker-open classification %s (%q), exact verdict's %s (%q)", got.Class, got.Reason, want.Class, want.Reason)
	}
}

// TestShedDoesNotLeakBreakerProbe is a regression test: a hard-class
// request that is shed (or otherwise fails admission) after its breaker's
// cooldown has elapsed must NOT consume the half-open probe slot. If it
// did, probing would stay true forever, every later hard request would
// short-circuit to the degraded verdict, and the class could never recover
// exact service. The breaker is therefore consulted only after a worker
// slot is held.
func TestShedDoesNotLeakBreakerProbe(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	var cutoff atomic.Bool
	cutoff.Store(true)
	cfg := Config{
		Workers:          1,
		QueueDepth:       -1, // no admission queue: saturation sheds instantly
		BreakerThreshold: 1,
		BreakerCooldown:  5 * time.Second,
	}
	cfg.now = clock.Now
	cfg.solve = func(ctx context.Context, p *solver.Plan, d *db.DB, opts solver.Options) (solver.Verdict, error) {
		if len(p.Query.Atoms) == 1 { // the FO filler query: block until released
			entered <- struct{}{}
			<-gate
			return solver.Verdict{Outcome: solver.OutcomeCertain, Result: solver.Result{Certain: true}}, nil
		}
		if cutoff.Load() {
			return solver.Verdict{Outcome: solver.OutcomeUnknown, Err: govern.ErrBudget}, nil
		}
		return solver.Verdict{Outcome: solver.OutcomeCertain, Result: solver.Result{Certain: true}}, nil
	}
	s := New(cfg)
	hard := SolveRequest{Query: q0Text(), DB: oddRingText(3)}
	fo := SolveRequest{Query: "R(x | y)", DB: "R(a | b)"}

	// One cutoff trips the hard class's breaker (threshold 1).
	resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", hard))
	if !errors.Is(resp.Verdict.Err, govern.ErrBudget) {
		t.Fatalf("tripping request err = %v, want budget cutoff", resp.Verdict.Err)
	}
	clock.Advance(6 * time.Second) // past cooldown: next admit would probe

	// Saturate the single worker with an FO solve, then shed a hard request.
	done := make(chan struct{})
	var foRec *httptest.ResponseRecorder
	go func() {
		defer close(done)
		foRec = doJSON(t, s, nil, "POST", "/v1/solve", fo)
	}()
	<-entered
	decodeError(t, doJSON(t, s, nil, "POST", "/v1/solve", hard),
		http.StatusTooManyRequests, CodeShed)
	close(gate)
	<-done
	decodeSolve(t, foRec)

	// The shed request must not have claimed the probe: the next admitted
	// hard request gets it, concludes, and closes the breaker.
	cutoff.Store(false)
	resp = decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", hard))
	if resp.Breaker != BreakerProbe {
		t.Fatalf("post-shed Breaker = %q, want %q (probe leaked to the shed request?)", resp.Breaker, BreakerProbe)
	}
	if resp.Verdict.Outcome != solver.OutcomeCertain {
		t.Fatalf("probe verdict = %+v, want certain", resp.Verdict)
	}
	resp = decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", hard))
	if resp.Breaker != "" {
		t.Fatalf("post-recovery Breaker = %q, want closed-path solve", resp.Breaker)
	}
}

// TestDrainReturnsPartialVerdict is the shutdown half of the acceptance
// criterion at the handler level: draining mid-solve cancels the governor,
// the in-flight request still gets a 200 with the partial verdict, new
// requests get 503, and Drain returns once responses are flushed.
func TestDrainReturnsPartialVerdict(t *testing.T) {
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	cfg := Config{Workers: 1}
	cfg.solve = blockingSolve(entered, gate)
	s := New(cfg)

	var rec *httptest.ResponseRecorder
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec = doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y)", DB: "R(a | b)"})
	}()
	<-entered
	s.BeginDrain()
	<-done

	resp := decodeSolve(t, rec)
	if resp.Verdict.Outcome != solver.OutcomeUnknown {
		t.Fatalf("drained verdict = %+v, want a partial (unknown) verdict", resp.Verdict)
	}
	if !errors.Is(resp.Verdict.Err, context.Canceled) {
		t.Fatalf("drained verdict err = %v, want canceled", resp.Verdict.Err)
	}
	if resp.Verdict.Evidence == nil || resp.Verdict.Evidence.Steps != 42 {
		t.Fatalf("partial evidence lost: %+v", resp.Verdict.Evidence)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	rec2 := doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y)", DB: "R(a | b)"})
	decodeError(t, rec2, http.StatusServiceUnavailable, CodeShutdown)
}
