package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/emit"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/intern"
	"github.com/cqa-go/certainty/internal/lru"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/plan"
	"github.com/cqa-go/certainty/internal/solver"
	"github.com/cqa-go/certainty/internal/wal"
)

// Config tunes a Server. The zero value gets sane production defaults from
// New; see the field comments for them.
type Config struct {
	// Workers bounds concurrent solves (default 4). Requests beyond it
	// wait in the admission queue.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// (default 2×Workers). Requests beyond it are shed with 429.
	QueueDepth int
	// Policy clamps client-supplied deadlines and budgets. The zero
	// policy imposes no limits — operators should set maxima.
	Policy govern.Policy
	// RetryAfter is the hint attached to shed and shutdown responses
	// (default 1s).
	RetryAfter time.Duration
	// BreakerThreshold is how many consecutive governor cutoffs on one
	// hard query class trip its circuit breaker (default 3; negative
	// disables breaking).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker short-circuits before
	// allowing a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatchItems caps how many items one POST /v1/solve/batch request may
	// carry (default 256). Larger batches are rejected with a policy error
	// rather than admitted and half-served.
	MaxBatchItems int
	// DegradeSamples / SampleTimeout bound the Monte-Carlo degradation
	// pass for all requests (0 = solver defaults).
	DegradeSamples int
	SampleTimeout  time.Duration
	// PlanCacheSize bounds the compiled-plan cache (default
	// plan.DefaultCacheSize). Plans are keyed by the query's canonical
	// form and compiled at most once per form, singleflighted across
	// concurrent requests.
	PlanCacheSize int
	// VerdictCacheSize bounds the verdict cache, keyed by (canonical
	// query, database content digest). Only conclusive verdicts are
	// cached — cut-off (OutcomeUnknown) verdicts depend on the request's
	// budget and are always recomputed. Default 4096; negative disables
	// verdict caching.
	VerdictCacheSize int
	// ShardMemoSize bounds the per-shard verdict memo behind delta
	// re-solve (only active with a hosted Store: inline databases are
	// one-shot, so shard memoization cannot pay off). Hosted solves run
	// through the shard decomposition and memoize each shard's conclusive
	// sub-verdict by content fingerprint; a /v1/db mutation invalidates
	// only the entries whose fingerprints cover the touched blocks, so the
	// next solve recomputes exactly the shards that changed. Default
	// solver.DefaultShardMemoSize; negative disables delta re-solve
	// (hosted solves then take the monolithic path).
	ShardMemoSize int
	// Logger, when non-nil, receives one line per solve and lifecycle
	// event.
	Logger *log.Logger
	// Registry receives the server's metrics — request counters and latency
	// histograms labeled by query class and verdict kind, plus the cache
	// counters — and backs GET /metrics. Nil selects obs.Default, so certd
	// exposes the whole process (solver, db, govern, engine) on one page;
	// tests pass their own registry for isolation.
	Registry *obs.Registry
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/ for CPU,
	// heap, and goroutine profiling. Off by default: profiles reveal query
	// shapes and cost, so operators opt in (certd -pprof).
	EnablePprof bool
	// Store, when non-nil, is the durable hosted database (internal/wal):
	// it enables the /v1/db mutation endpoints, and solve requests with an
	// empty DB field run against its current snapshot instead of an empty
	// inline database. The server does not own the store's lifecycle —
	// certd opens it before New and closes it after Drain.
	Store *wal.Store

	// now and solve are test seams: a fake clock for the breaker automaton
	// and a replacement solve function. Nil means real clock / real solver.
	now   func() time.Time
	solve func(context.Context, cq.Query, *db.DB, solver.Options) (solver.Verdict, error)
}

// Server is the resilient CERTAINTY(q) service. Create with New, expose
// via Handler, stop with BeginDrain then Drain.
type Server struct {
	cfg      Config
	classify *core.Cache
	plans    *plan.Cache
	verdicts *verdictCache
	breakers *breakerSet
	mux      *http.ServeMux

	// shardMemo is the delta re-solve state (nil when disabled or
	// stateless); defaultSolve records that cfg.solve was not overridden
	// by a test seam, which is what licenses routing hosted solves
	// through the memoized sharded path.
	shardMemo    *solver.ShardMemo
	defaultSolve bool

	reg        *obs.Registry
	classifyM  *obs.CacheMetrics
	plansM     *obs.CacheMetrics
	verdictsM  *obs.CacheMetrics
	shardMemoM *obs.CacheMetrics
	mInflight  *obs.Gauge
	mQueued    *obs.Gauge

	mInternSymbols *obs.Gauge
	mInternBytes   *obs.Gauge
	mInternHits    *obs.Gauge
	mInternMisses  *obs.Gauge

	slots    chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
	wg       sync.WaitGroup

	draining    atomic.Bool
	drainCtx    context.Context
	drainCancel context.CancelFunc
}

// Metric names exposed on /metrics.
const (
	metricSolveTotal      = "certd_solve_total"
	metricSolveSeconds    = "certd_solve_seconds"
	metricRejectionsTotal = "certd_rejections_total"
	metricInflight        = "certd_inflight"
	metricQueued          = "certd_queued"
	metricInternSymbols   = "certd_intern_symbols"
	metricInternBytes     = "certd_intern_table_bytes"
	metricInternHits      = "certd_intern_hits"
	metricInternMisses    = "certd_intern_misses"

	metricDeltaReused     = "certd_delta_shards_reused_total"
	metricDeltaRecomputed = "certd_delta_shards_recomputed_total"
)

// New builds a Server from cfg, applying defaults for unset fields.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 256
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.VerdictCacheSize == 0 {
		cfg.VerdictCacheSize = 4096
	}
	s := &Server{
		cfg:      cfg,
		classify: core.NewCache(),
		plans:    plan.NewCache(cfg.PlanCacheSize),
		breakers: newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.now),
		slots:    make(chan struct{}, cfg.Workers),
	}
	s.reg = cfg.Registry
	if s.reg == nil {
		s.reg = obs.Default
	}
	s.reg.Help(metricSolveTotal, "Solve requests answered, by query class and verdict kind.")
	s.reg.Help(metricSolveSeconds, "Solve latency in seconds, by query class.")
	s.reg.Help(metricRejectionsTotal, "Non-200 responses, by error code.")
	s.reg.Help(metricInflight, "Solves currently executing.")
	s.reg.Help(metricQueued, "Requests waiting for a worker slot.")
	s.reg.Help(metricInternSymbols, "Symbols interned by the hosted database's columnar view.")
	s.reg.Help(metricInternBytes, "Approximate bytes held by the hosted view's symbol table.")
	s.reg.Help(metricInternHits, "Symbol lookups answered by an existing id in the hosted view.")
	s.reg.Help(metricInternMisses, "Symbol lookups that interned a new id in the hosted view.")
	s.mInflight = s.reg.Gauge(metricInflight)
	s.mQueued = s.reg.Gauge(metricQueued)
	s.mInternSymbols = s.reg.Gauge(metricInternSymbols)
	s.mInternBytes = s.reg.Gauge(metricInternBytes)
	s.mInternHits = s.reg.Gauge(metricInternHits)
	s.mInternMisses = s.reg.Gauge(metricInternMisses)
	s.classifyM = obs.NewCacheMetrics(s.reg, "classify")
	s.classify.Instrument(s.classifyM)
	s.plansM = obs.NewCacheMetrics(s.reg, "plans")
	s.plans.Instrument(s.plansM)
	if cfg.VerdictCacheSize > 0 {
		s.verdictsM = obs.NewCacheMetrics(s.reg, "verdicts")
		s.verdicts = newVerdictCache(cfg.VerdictCacheSize, s.verdictsM)
	}
	if cfg.Store != nil && cfg.ShardMemoSize >= 0 {
		s.reg.Help(metricDeltaReused, "Shard sub-verdicts reused from the memo by hosted solves.")
		s.reg.Help(metricDeltaRecomputed, "Shard sub-verdicts recomputed by hosted solves.")
		s.shardMemoM = obs.NewCacheMetrics(s.reg, "shard_memo")
		s.shardMemo = solver.NewShardMemo(cfg.ShardMemoSize, s.shardMemoM)
	}
	s.defaultSolve = s.cfg.solve == nil
	if s.cfg.solve == nil {
		// The default solve path goes through the compiled-plan cache:
		// classification, method selection, and the FO program are computed
		// once per canonical query and reused across requests.
		s.cfg.solve = func(ctx context.Context, q cq.Query, d *db.DB, opts solver.Options) (solver.Verdict, error) {
			p, err := s.plans.Get(ctx, q)
			if err != nil {
				return solver.Verdict{}, err
			}
			return p.SolveCtx(ctx, d, opts)
		}
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	// The versioned surface: everything a client program calls lives under
	// /v1/ (see API.md for the wire contract).
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve/batch", s.handleSolveBatch)
	s.mux.HandleFunc("POST /v1/classify", s.handleClassify)
	s.mux.HandleFunc("GET /v1/classify", s.handleClassifyGet)
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	// The durable hosted database (404 with a hint unless certd was started
	// with -data-dir; see db.go in this package).
	s.mux.HandleFunc("GET /v1/db", s.handleDBGet)
	s.mux.HandleFunc("POST /v1/db/facts", s.handleDBInsert)
	s.mux.HandleFunc("DELETE /v1/db/facts", s.handleDBDelete)
	// Operational probes stay unversioned by convention (load balancers and
	// scrapers address them directly).
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// verdictCache memoizes conclusive verdicts by (canonical query, database
// content digest). Conclusive verdicts are exact and independent of any
// budget or deadline, so serving one for a repeated instance is always
// correct; OutcomeUnknown verdicts are never stored. Safe for concurrent
// use.
type verdictCache struct {
	mu sync.Mutex
	c  *lru.Cache[string, solver.Verdict]
	m  *obs.CacheMetrics
}

func newVerdictCache(size int, m *obs.CacheMetrics) *verdictCache {
	vc := &verdictCache{c: lru.New[string, solver.Verdict](size), m: m}
	m.SetSize(vc.c.Len(), vc.c.Cap())
	return vc
}

// verdictKey joins the canonical query key and a content digest of the
// relations the query reads; NUL cannot occur in either part. Scoping the
// digest to the query's relations (instead of the whole database) is the
// incremental-invalidation contract: CERTAINTY(q) is determined by the
// facts of q's relations alone, so a mutation that touches only other
// relations leaves every cached verdict for q addressable and valid.
func verdictKey(q cq.Query, d *db.DB) string {
	return cq.CanonicalKey(q) + "\x00" + d.DigestOf(queryRels(q))
}

// queryRels returns the relation names the query mentions.
func queryRels(q cq.Query) []string {
	rels := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		rels[i] = a.Rel
	}
	return rels
}

func (vc *verdictCache) get(key string) (solver.Verdict, bool) {
	vc.mu.Lock()
	v, ok := vc.c.Get(key)
	vc.mu.Unlock()
	if ok {
		vc.m.Hit()
	} else {
		vc.m.Miss()
	}
	return v, ok
}

func (vc *verdictCache) put(key string, v solver.Verdict) {
	vc.mu.Lock()
	if vc.c.Put(key, v) {
		vc.m.Evicted(1)
	}
	vc.m.SetSize(vc.c.Len(), vc.c.Cap())
	vc.mu.Unlock()
}

func (vc *verdictCache) stats() lru.Stats {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.c.Stats()
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain moves the server into draining mode: new requests are refused
// with 503, queued requests are released with 503, and the governors of
// in-flight solves are cancelled so they come back promptly with partial
// (OutcomeUnknown) verdicts that the HTTP layer can still deliver. Safe to
// call more than once.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.logf("drain: admission stopped, cancelling %d in-flight solves", s.inflight.Load())
		s.drainCancel()
	}
}

// Drain blocks until every in-flight request has finished writing its
// response, or ctx expires. Call after BeginDrain; pair with
// http.Server.Shutdown, which waits for the connections themselves.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// Admission outcomes.
var (
	errShed  = errors.New("admission queue full")
	errDrain = errors.New("server draining")
)

// acquire claims a worker slot, waiting in the bounded admission queue if
// the pool is busy. It fails fast with errShed when the queue is full,
// errDrain when the server starts draining, or the request context's error
// when the client goes away while queued.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	n := s.queued.Add(1)
	s.mQueued.Set(n)
	if n > int64(s.cfg.QueueDepth) {
		s.mQueued.Set(s.queued.Add(-1))
		return errShed
	}
	defer func() { s.mQueued.Set(s.queued.Add(-1)) }()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-s.drainCtx.Done():
		return errDrain
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.slots }

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the taxonomy error body; shed/shutdown/read-only also
// carry the Retry-After header (whole seconds, rounded up, minimum 1).
func (s *Server) writeError(w http.ResponseWriter, status int, code, message string) {
	s.writeErrorBody(w, status, &ErrorBody{Code: code, Message: message})
}

// writeErrorBody is writeError for callers that prefill extra body fields
// (the conflict responses carry the current database version).
func (s *Server) writeErrorBody(w http.ResponseWriter, status int, body *ErrorBody) {
	s.reg.Counter(metricRejectionsTotal, obs.L{K: "code", V: body.Code}).Inc()
	if body.Code == CodeShed || body.Code == CodeShutdown || body.Code == CodeReadOnly {
		ra := s.cfg.RetryAfter
		body.RetryAfterMS = ra.Milliseconds()
		secs := int64((ra + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, body)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, CodeShutdown, "server is draining")
		return
	}
	var req SolveRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "body: "+err.Error())
		return
	}
	q, err := cq.ParseQuery(req.Query)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "query: "+err.Error())
		return
	}
	// An empty DB on a server hosting a durable store means "solve against
	// the hosted snapshot"; the snapshot is immutable, so the solve is
	// unaffected by concurrent mutations and reports the version it saw.
	var d *db.DB
	var dbVersion *uint64
	if req.DB == "" && s.cfg.Store != nil {
		hosted, v := s.cfg.Store.DB()
		d, dbVersion = hosted, &v
	} else if d, err = db.Parse(req.DB); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "db: "+err.Error())
		return
	}
	// The staleness fence: a request pinned to a version is answered only
	// by a snapshot at exactly that version. Checked before any solving or
	// caching so a fenced request does zero work and cannot be served a
	// stale cached verdict.
	if req.IfDBVersion != nil {
		if dbVersion == nil {
			s.writeError(w, http.StatusBadRequest, CodeMalformed,
				"if_db_version requires solving against the hosted database")
			return
		}
		if *dbVersion != *req.IfDBVersion {
			s.writeErrorBody(w, http.StatusPreconditionFailed, &ErrorBody{
				Code: CodeVersionFenced,
				Message: fmt.Sprintf("hosted database is at version %d, request fenced to %d",
					*dbVersion, *req.IfDBVersion),
				Version: *dbVersion,
			})
			return
		}
	}
	cls, err := s.classify.Classify(q)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, CodeUnsupported, err.Error())
		return
	}

	gopts, clamped, err := s.cfg.Policy.Clamp(govern.Options{
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		Budget:  req.Budget,
	})
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, CodePolicy, err.Error())
		return
	}
	opts := solver.Options{
		Timeout:        gopts.Timeout,
		Budget:         gopts.Budget,
		DegradeSamples: req.DegradeSamples,
		SampleSeed:     req.SampleSeed,
		SampleTimeout:  s.cfg.SampleTimeout,
	}
	if s.cfg.DegradeSamples != 0 && (opts.DegradeSamples == 0 || opts.DegradeSamples > s.cfg.DegradeSamples) {
		opts.DegradeSamples = s.cfg.DegradeSamples
	}

	// Memoized serving: a conclusive verdict for the same canonical query
	// and database content is exact under any limits, so it is served
	// straight from the cache — no worker slot, no breaker interaction.
	var vkey string
	if s.verdicts != nil {
		vkey = verdictKey(q, d)
		if v, ok := s.verdicts.get(vkey); ok {
			resp := SolveResponse{
				Envelope: Envelope{
					Class:     cls.Class,
					Method:    methodCode(v.Result.Method),
					DBVersion: dbVersion,
					Cached:    true,
				},
				Verdict: v,
			}
			if clamped.Any() {
				resp.Clamped = &ClampReport{
					Timeout:   clamped.Timeout,
					Budget:    clamped.Budget,
					TimeoutMS: opts.Timeout.Milliseconds(),
					BudgetVal: opts.Budget,
				}
			}
			s.countSolve(cls.Class.Code(), v)
			s.logf("solve %s: %s from verdict cache", cls.Class.Code(), v.Outcome)
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}

	// Register with the drain WaitGroup before claiming a slot so Drain
	// cannot return while a request sits between acquire and solve.
	s.wg.Add(1)
	defer s.wg.Done()

	switch err := s.acquire(r.Context()); {
	case errors.Is(err, errShed):
		s.writeError(w, http.StatusTooManyRequests, CodeShed, "worker pool and admission queue are full")
		return
	case errors.Is(err, errDrain):
		s.writeError(w, http.StatusServiceUnavailable, CodeShutdown, "server is draining")
		return
	case err != nil:
		// Client went away while queued; nothing to write.
		return
	}
	defer s.release()
	s.mInflight.Set(s.inflight.Add(1))
	defer func() { s.mInflight.Set(s.inflight.Add(-1)) }()

	// Consult the breaker only once a worker slot is held: every admitted
	// mode — in particular a half-open probe — is now guaranteed to reach
	// br.record below, so a shed, drained, or abandoned request can never
	// strand the breaker's single probe slot.
	br := s.breakers.forClass(cls.Class)
	mode := modeFull
	if br != nil {
		mode = br.admit()
	}

	// The solve obeys both the client (request context) and the drain:
	// either cancels the governor, which surfaces as a prompt partial
	// verdict rather than an abandoned goroutine.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.drainCtx, cancel)
	defer stopAfter()

	start := time.Now()
	var v solver.Verdict
	var delta bool
	switch {
	case mode == modeShortCircuit:
		v, err = solver.Degraded(ctx, q, d, opts)
	case s.shardMemo != nil && dbVersion != nil && s.defaultSolve:
		// Delta re-solve: hosted solves run through the shard
		// decomposition with the per-shard verdict memo, so only the
		// shards whose block content changed since the last solve are
		// recomputed — the rest reuse their memoized conclusive
		// sub-verdicts. Conclusive verdicts are identical to the
		// monolithic path's.
		v, delta, err = s.solveHostedDelta(ctx, q, d, opts)
	default:
		v, err = s.cfg.solve(ctx, q, d, opts)
	}
	elapsed := time.Since(start)
	if err != nil {
		if br != nil {
			br.record(mode, false, false) // neutral: no exact-path signal
		}
		s.logf("solve %s: internal error after %v: %v", cls.Class.Code(), elapsed, err)
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}

	// Classify the ending for the breaker: did the exact search get cut
	// off by its budget/deadline (including the lucky sampled-witness
	// upgrade, which still burned the whole budget), did it conclude, or
	// was it ended neutrally (client cancellation, shutdown)?
	exactCutoff := (v.Evidence != nil && v.Evidence.FalsifyingSample != nil) ||
		(v.Outcome == solver.OutcomeUnknown &&
			(errors.Is(v.Err, govern.ErrBudget) || errors.Is(v.Err, context.DeadlineExceeded)))
	conclusive := !exactCutoff && v.Outcome != solver.OutcomeUnknown
	if br != nil {
		br.record(mode, exactCutoff, conclusive)
	}
	// Cache only conclusive verdicts (Err == nil excludes degraded answers
	// that carry ErrExactSkipped): those are independent of the request's
	// budget and deadline, so a later request with different limits may
	// reuse them.
	if s.verdicts != nil && v.Err == nil && v.Outcome != solver.OutcomeUnknown {
		s.verdicts.put(vkey, v)
	}
	s.countSolve(cls.Class.Code(), v)
	s.reg.Histogram(metricSolveSeconds, nil, obs.L{K: "class", V: cls.Class.Code()}).Observe(elapsed.Seconds())

	resp := SolveResponse{
		Envelope: Envelope{
			Class:     cls.Class,
			Method:    methodCode(v.Result.Method),
			DBVersion: dbVersion,
			Delta:     delta,
		},
		Verdict:   v,
		ElapsedMS: elapsed.Milliseconds(),
	}
	switch mode {
	case modeShortCircuit:
		resp.Breaker = BreakerOpen
	case modeProbe:
		resp.Breaker = BreakerProbe
	}
	if clamped.Any() {
		resp.Clamped = &ClampReport{
			Timeout:   clamped.Timeout,
			Budget:    clamped.Budget,
			TimeoutMS: opts.Timeout.Milliseconds(),
			BudgetVal: opts.Budget,
		}
	}
	s.logf("solve %s: %s in %v (breaker=%q)", cls.Class.Code(), v.Outcome, elapsed, resp.Breaker)
	writeJSON(w, http.StatusOK, resp)
}

// solveHostedDelta runs one hosted solve through the compiled plan and the
// per-shard verdict memo, publishes the reused/recomputed counters, and
// reports whether any shard sub-verdict was reused (the response's "delta"
// marker). The shard cap is 0 — the finest partition — deliberately: memo
// granularity, not parallelism, is what the cap buys here. A coarser,
// GOMAXPROCS-matched packing would fuse independent groups into one shard,
// so any mutation would invalidate the fused fingerprint and recompute all
// of them; with one shard per co-occurrence group a mutation recomputes
// exactly the groups it touched. Scheduling is unaffected — shards fan out
// on the bounded worker pool either way.
func (s *Server) solveHostedDelta(ctx context.Context, q cq.Query, d *db.DB, opts solver.Options) (solver.Verdict, bool, error) {
	p, err := s.plans.Get(ctx, q)
	if err != nil {
		return solver.Verdict{}, false, err
	}
	v, rep, err := p.SolveShardedMemo(ctx, d, 0, opts, s.shardMemo)
	if rep.ShardsReused > 0 {
		s.reg.Counter(metricDeltaReused).Add(uint64(rep.ShardsReused))
	}
	if rep.ShardsRecomputed > 0 {
		s.reg.Counter(metricDeltaRecomputed).Add(uint64(rep.ShardsRecomputed))
	}
	return v, rep.ShardsReused > 0, err
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, CodeShutdown, "server is draining")
		return
	}
	var req ClassifyRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "body: "+err.Error())
		return
	}
	s.respondClassify(w, req.Query, false)
}

// handleClassifyGet is the read-only alias GET /v1/classify?q=<query>.
// Classification is pure — the same query text always classifies the same
// way, independent of any database — so successful GET responses carry
// Cache-Control and may be cached indefinitely by clients and
// intermediaries.
func (s *Server) handleClassifyGet(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, CodeShutdown, "server is draining")
		return
	}
	query := r.URL.Query().Get("q")
	if query == "" {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "missing query parameter q")
		return
	}
	s.respondClassify(w, query, true)
}

// respondClassify is the shared tail of both classify endpoints.
func (s *Server) respondClassify(w http.ResponseWriter, query string, cacheable bool) {
	q, err := cq.ParseQuery(query)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "query: "+err.Error())
		return
	}
	cls, err := s.classify.Classify(q)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, CodeUnsupported, err.Error())
		return
	}
	if cacheable {
		w.Header().Set("Cache-Control", "public, max-age=86400")
	}
	writeJSON(w, http.StatusOK, ClassifyResponse{
		Envelope: Envelope{Class: cls.Class},
		Reason:   cls.Reason,
		InP:      cls.Class.InP(),
	})
}

// handleCompile lowers the query's consistent first-order rewriting to an
// executable backend program (SQL or Datalog). Compilation is per-query
// work with no database involved, so like classify it bypasses the worker
// pool; plans come from the shared compiled-plan cache, so a query that is
// later solved natively pays classification only once.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, CodeShutdown, "server is draining")
		return
	}
	var req CompileRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "body: "+err.Error())
		return
	}
	dialect := req.Dialect
	if dialect == "" {
		dialect = emit.DialectSQL
	}
	if dialect != emit.DialectSQL && dialect != emit.DialectDatalog {
		s.writeError(w, http.StatusBadRequest, CodeMalformed,
			fmt.Sprintf("dialect: unknown dialect %q (want %q or %q)", dialect, emit.DialectSQL, emit.DialectDatalog))
		return
	}
	q, err := cq.ParseQuery(req.Query)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "query: "+err.Error())
		return
	}
	p, err := s.plans.Get(r.Context(), q)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, CodeUnsupported, err.Error())
		return
	}
	var prog emit.Program
	switch dialect {
	case emit.DialectSQL:
		prog, err = p.EmitSQL()
	case emit.DialectDatalog:
		prog, err = p.EmitDatalog()
	}
	if err != nil {
		// Outside the FO class there is no rewriting to ship; the error
		// carries the classification so the caller can fall back to
		// /v1/solve without a second round trip.
		var ne *solver.NotEmittableError
		if errors.As(err, &ne) {
			s.writeErrorBody(w, http.StatusUnprocessableEntity, &ErrorBody{
				Code: CodeUnsupported,
				Message: fmt.Sprintf("CERTAINTY(q) is %s: no first-order rewriting exists; fall back to /v1/solve",
					ne.Classification.Class.Code()),
				Class: ne.Classification.Class.Code(),
			})
			return
		}
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, CompileResponse{
		Envelope:    Envelope{Class: p.Class, Method: methodCode(p.Method)},
		Dialect:     dialect,
		Program:     prog.Text,
		SchemaNotes: prog.SchemaNotes,
	})
}

// methodCode renders a solver method's wire code ("" if unknown).
func methodCode(m solver.Method) string {
	b, err := m.MarshalText()
	if err != nil {
		return ""
	}
	return string(b)
}

func (s *Server) health() HealthResponse {
	h := HealthResponse{
		Status:   "ok",
		Workers:  s.cfg.Workers,
		Inflight: s.inflight.Load(),
		Queued:   s.queued.Load(),
		Draining: s.draining.Load(),
	}
	if s.cfg.Store != nil {
		h.ReadOnly, _ = s.cfg.Store.ReadOnly()
	}
	return h
}

// countSolve increments the class/verdict-kind request counter for one
// answered solve (cached or computed).
func (s *Server) countSolve(class string, v solver.Verdict) {
	s.reg.Counter(metricSolveTotal,
		obs.L{K: "class", V: class},
		obs.L{K: "verdict", V: verdictKind(v)}).Inc()
}

// verdictKind maps a verdict to its counter label: the outcome wire code
// ("certain", "not-certain", "unknown"), except that a breaker-skipped exact
// search reports "degraded" so operators can see short-circuiting directly.
func verdictKind(v solver.Verdict) string {
	if errors.Is(v.Err, solver.ErrExactSkipped) {
		return "degraded"
	}
	b, err := v.Outcome.MarshalText()
	if err != nil {
		return "unknown"
	}
	return string(b)
}

// statsFrom renders one cache's obs counters in the /v1/statsz wire
// shape. The obs mirror is updated in the same critical sections as the
// lru-internal counters, so the two views are always equal (locked by a
// regression test).
func statsFrom(m *obs.CacheMetrics) lru.Stats {
	return lru.Stats{
		Len:       m.Len(),
		Cap:       m.Cap(),
		Hits:      m.Hits(),
		Misses:    m.Misses(),
		Evictions: m.Evictions(),
	}
}

// internStats resolves the symbol-interner census reported on /statsz and
// the certd_intern_* gauges: the hosted database's columnar view when a
// store is attached (building the view if a mutation dropped it), all-zero
// when certd runs stateless. The hosted snapshot is immutable, so reading
// the view here never races with writers.
func (s *Server) internStats() intern.Stats {
	if s.cfg.Store == nil {
		return intern.Stats{}
	}
	d, _ := s.cfg.Store.DB()
	return d.Interned().Stats()
}

// publishInternStats refreshes the certd_intern_* gauges from a census.
func (s *Server) publishInternStats(st intern.Stats) {
	s.mInternSymbols.Set(st.Symbols)
	s.mInternBytes.Set(st.TableBytes)
	s.mInternHits.Set(st.Hits)
	s.mInternMisses.Set(st.Misses)
}

// handleStatsz reports the serving-layer cache counters: classification,
// compiled plans, and verdicts. Since the metrics migration the numbers are
// read from the obs registry rather than the lru internals; the JSON shape
// and values are unchanged. The interned data plane adds the hosted view's
// symbol-table census.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	resp := StatszResponse{
		Classify: statsFrom(s.classifyM),
		Plans:    statsFrom(s.plansM),
		Intern:   s.internStats(),
	}
	if s.verdicts != nil {
		resp.Verdicts = statsFrom(s.verdictsM)
	}
	if s.shardMemo != nil {
		resp.ShardMemo = statsFrom(s.shardMemoM)
		resp.ShardMemoInvalidations = s.shardMemo.Invalidations()
	}
	s.publishInternStats(resp.Intern)
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the registry in the Prometheus text exposition
// format, refreshing the scrape-time gauges first.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.publishInternStats(s.internStats())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// handleHealthz reports liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleReadyz reports readiness: 503 once draining so load balancers stop
// routing here while in-flight work finishes, and 503 while the hosted
// store is degraded to read-only so fleet health probes stop routing
// writes to a node that would refuse them. Readiness returns with the
// store: the WAL layer re-probes the disk and clears the degradation on
// the next successful commit.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.health()
	if h.Draining || h.ReadOnly {
		if h.Draining {
			h.Status = "draining"
		} else {
			h.Status = "read-only"
		}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}
