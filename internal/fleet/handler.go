package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/server"
	"github.com/cqa-go/certainty/internal/shard"
)

const ndjsonContentType = "application/x-ndjson"

// BackendStatus is one backend's row in the fleet topology report.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Status is "ok", "unprobed", "probe" (probe failed), "transport"
	// (request-path failure), or "read-only".
	Status string `json:"status,omitempty"`
	// DBVersion is the latest hosted-snapshot version seen in a response
	// from this backend, when any response has reported one.
	DBVersion *uint64 `json:"db_version,omitempty"`
}

// FleetStatusResponse is the body of the coordinator's /healthz, /readyz,
// and /v1/fleet.
type FleetStatusResponse struct {
	// Status is "ok" while at least one backend is healthy, "draining"
	// during shutdown, "unavailable" otherwise.
	Status   string          `json:"status"`
	Healthy  int             `json:"healthy"`
	Backends []BackendStatus `json:"backends"`
	// HedgeDelayMS is the current hedging delay (p95-derived, clamped).
	HedgeDelayMS int64 `json:"hedge_delay_ms"`
}

// Handler returns the coordinator's HTTP handler. It serves the same /v1
// solve surface as a worker — a client cannot tell a coordinator from a
// fat single node, except that mutations are refused (the write path goes
// to workers directly; the coordinator routes reads).
func (c *Coordinator) Handler() http.Handler { return c.mux }

func (c *Coordinator) buildMux() {
	m := http.NewServeMux()
	m.HandleFunc("/v1/solve", c.handleSolve)
	m.HandleFunc("/v1/solve/batch", c.handleBatch)
	m.HandleFunc("/v1/classify", c.handleClassify)
	m.HandleFunc("/v1/compile", c.handleCompile)
	m.HandleFunc("/v1/fleet", c.handleFleet)
	m.HandleFunc("/v1/db", c.handleDB)
	m.HandleFunc("/v1/db/", c.handleDB)
	m.HandleFunc("/healthz", c.handleFleet)
	m.HandleFunc("/readyz", c.handleReadyz)
	m.HandleFunc("/metrics", c.handleMetrics)
	c.mux = m
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError serializes a routing or relayed worker error with the status
// its taxonomy code dictates, mirroring the worker server's conventions
// (Retry-After header on transient statuses).
func writeError(w http.ResponseWriter, body *server.ErrorBody) {
	status := server.StatusForCode(body.Code)
	if body.RetryAfterMS > 0 && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) {
		secs := (body.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, body)
}

// relayError writes err to w: a typed worker/routing error passes through
// with its own status; anything else (context cancellation aside) becomes
// an internal error.
func relayError(w http.ResponseWriter, err error) {
	var eb *server.ErrorBody
	if errors.As(err, &eb) {
		writeError(w, eb)
		return
	}
	writeError(w, &server.ErrorBody{Code: server.CodeInternal, Message: err.Error()})
}

func (c *Coordinator) admit(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	if c.draining.Load() {
		writeError(w, &server.ErrorBody{Code: server.CodeShutdown, Message: "coordinator is draining", RetryAfterMS: 1000})
		return false
	}
	return true
}

func (c *Coordinator) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !c.admit(w, r) {
		return
	}
	req, err := server.DecodeSolveRequest(w, r, c.cfg.MaxBodyBytes)
	if err != nil {
		writeError(w, &server.ErrorBody{Code: server.CodeMalformed, Message: "body: " + err.Error()})
		return
	}
	// The placement key needs the parsed query; an unparseable one still
	// routes (key "") so the worker's parser writes the canonical error.
	key := ""
	if q, err := cq.ParseQuery(req.Query); err == nil {
		key = shard.PlacementKey(q)
	}
	resp, err := c.routeSolve(r.Context(), key, req)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone
		}
		relayError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleClassify(w http.ResponseWriter, r *http.Request) {
	if !c.admit(w, r) {
		return
	}
	var req server.ClassifyRequest
	r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, &server.ErrorBody{Code: server.CodeMalformed, Message: "body: " + err.Error()})
		return
	}
	key := ""
	if q, err := cq.ParseQuery(req.Query); err == nil {
		key = shard.PlacementKey(q)
	}
	resp, err := c.routeClassify(r.Context(), key, req.Query)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		relayError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCompile passes a rewriting compilation through to a worker.
// Unsupported-class errors (non-FO queries) relay verbatim, classification
// code included, so fleet clients get the same fallback signal as
// single-node clients.
func (c *Coordinator) handleCompile(w http.ResponseWriter, r *http.Request) {
	if !c.admit(w, r) {
		return
	}
	var req server.CompileRequest
	r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, &server.ErrorBody{Code: server.CodeMalformed, Message: "body: " + err.Error()})
		return
	}
	key := ""
	if q, err := cq.ParseQuery(req.Query); err == nil {
		key = shard.PlacementKey(q)
	}
	resp, err := c.routeCompile(r.Context(), key, req.Query, req.Dialect)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		relayError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !c.admit(w, r) {
		return
	}
	f, eb := c.decodeBatch(w, r)
	if eb != nil {
		writeError(w, eb)
		return
	}
	// Failover rebuilds sub-batches from the item text, which views the
	// body: it is released only once routeBatch has returned.
	defer f.Release()

	start := time.Now()
	stream := f.Head.Stream || strings.Contains(r.Header.Get("Accept"), ndjsonContentType)
	if stream {
		w.Header().Set("Content-Type", ndjsonContentType)
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		flush := func() {}
		if fl, ok := w.(http.Flusher); ok {
			flush = fl.Flush
		}
		var mu sync.Mutex
		c.routeBatch(r.Context(), f, func(item server.BatchItemResult) {
			mu.Lock()
			defer mu.Unlock()
			_ = enc.Encode(&item)
			flush()
		})
		c.requests("/v1/solve/batch", "ok").Inc()
		return
	}
	results := make([]server.BatchItemResult, len(f.Items))
	var mu sync.Mutex
	c.routeBatch(r.Context(), f, func(item server.BatchItemResult) {
		mu.Lock()
		defer mu.Unlock()
		if item.Index >= 0 && item.Index < len(results) {
			results[item.Index] = item
		}
	})
	if r.Context().Err() != nil {
		return
	}
	c.requests("/v1/solve/batch", "ok").Inc()
	writeJSON(w, http.StatusOK, server.BatchSolveResponse{
		Results:   results,
		ElapsedMS: time.Since(start).Milliseconds(),
	})
}

// decodeBatch frames a batch body and checks its shape, with the worker's
// messages: these failures must not depend on which replica would have
// been asked. On a failure it returns the error to write and no frame.
func (c *Coordinator) decodeBatch(w http.ResponseWriter, r *http.Request) (*server.BatchFrame, *server.ErrorBody) {
	f, err := server.DecodeBatchFrame(w, r, c.cfg.MaxBodyBytes)
	if err != nil {
		return nil, &server.ErrorBody{Code: server.CodeMalformed, Message: "body: " + err.Error()}
	}
	var eb *server.ErrorBody
	switch n := len(f.Items); {
	case n == 0:
		eb = &server.ErrorBody{Code: server.CodeMalformed, Message: "batch has no items"}
	case n > c.cfg.MaxBatchItems:
		eb = &server.ErrorBody{
			Code:    server.CodePolicy,
			Message: "batch has " + strconv.Itoa(n) + " items, server maximum is " + strconv.Itoa(c.cfg.MaxBatchItems),
		}
	}
	if eb != nil {
		f.Release()
		return nil, eb
	}
	return f, nil
}

// handleDB refuses mutations and hosted-database reads: the coordinator
// routes solve traffic, it does not proxy the write path. Writers talk to
// workers (or the replication pipeline) directly.
func (c *Coordinator) handleDB(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusNotImplemented, &server.ErrorBody{
		Code:    server.CodeUnsupported,
		Message: "coordinator does not serve /v1/db; address workers directly",
	})
}

func (c *Coordinator) status() FleetStatusResponse {
	resp := FleetStatusResponse{HedgeDelayMS: c.hedgeDelay().Milliseconds()}
	for _, b := range c.backends {
		bs := BackendStatus{URL: b.url, Healthy: b.healthy.Load()}
		if s, ok := b.status.Load().(string); ok {
			bs.Status = s
		}
		if b.hasVer.Load() {
			v := b.version.Load()
			bs.DBVersion = &v
		}
		if bs.Healthy {
			resp.Healthy++
		}
		resp.Backends = append(resp.Backends, bs)
	}
	switch {
	case c.draining.Load():
		resp.Status = "draining"
	case resp.Healthy > 0:
		resp.Status = "ok"
	default:
		resp.Status = "unavailable"
	}
	return resp
}

// handleFleet reports the fleet topology (also the coordinator's /healthz:
// the process is alive, here is what it can see).
func (c *Coordinator) handleFleet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.status())
}

// handleReadyz is ready while at least one backend is healthy and the
// coordinator is not draining: with one live replica the fleet still
// answers (slower, unhedged), with zero it can only say unavailable.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s := c.status()
	if s.Status != "ok" {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, s)
		return
	}
	writeJSON(w, http.StatusOK, s)
}

// handleMetrics serves the coordinator registry in Prometheus text format.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = c.reg.WritePrometheus(w)
}
