// Package server implements certd's HTTP/JSON service layer over the
// CERTAINTY(q) solver stack. The layer exists because the workload is
// bimodal: FO-rewritable queries answer in microseconds while strong-cycle
// queries are coNP-complete (Theorem 2), so a shared endpoint must keep the
// hard requests from starving everything else. The server composes four
// defenses, in request order:
//
//  1. Admission control: a bounded worker pool with a bounded wait queue;
//     requests beyond both are shed immediately with 429 + Retry-After.
//  2. Policy clamping: client-supplied deadlines and step budgets are
//     mapped onto the in-process governor (internal/govern) and clamped to
//     operator maxima, so no request can demand unbounded work.
//  3. Per-class circuit breakers: repeated governor cutoffs on a hard query
//     class trip that class's breaker; while open, its requests
//     short-circuit to the bounded Monte-Carlo degraded verdict instead of
//     burning a worker on a search that keeps timing out. Half-open probes
//     recover. Tractable classes are unaffected and keep answering exactly.
//  4. Graceful shutdown: draining stops admission (503), cancels in-flight
//     governors so searches return partial verdicts promptly, and lets the
//     HTTP layer flush those responses before the process exits.
package server

import (
	"fmt"
	"net/http"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/intern"
	"github.com/cqa-go/certainty/internal/lru"
	"github.com/cqa-go/certainty/internal/solver"
)

// Error taxonomy codes carried in ErrorBody.Code. Clients use them to
// decide retryability: malformed, unsupported, and policy errors are
// permanent (the same request can never succeed); shed and shutdown are
// transient (retry after backoff); internal may be retried a bounded
// number of times.
const (
	// CodeMalformed: the request body, query, or database text does not
	// parse. HTTP 400.
	CodeMalformed = "malformed"
	// CodeUnsupported: the query is well-formed but outside the paper's
	// scope (self-joins, unrecognized cyclic queries). HTTP 422.
	CodeUnsupported = "unsupported"
	// CodePolicy: the request's explicit resource demands exceed server
	// policy and the server is configured to reject rather than clamp.
	// HTTP 422.
	CodePolicy = "policy"
	// CodeShed: the worker pool and its admission queue are full; the
	// request was not started. HTTP 429 with Retry-After.
	CodeShed = "shed"
	// CodeShutdown: the server is draining and admits no new work.
	// HTTP 503 with Retry-After.
	CodeShutdown = "shutdown"
	// CodeInternal: the solve failed unexpectedly (e.g. a contained
	// panic). HTTP 500.
	CodeInternal = "internal"
	// CodeConflict: a compare-and-swap mutation named a database version
	// that is no longer current. Permanent: retrying the identical request
	// can never succeed — re-read the version and decide again. HTTP 409.
	// The error body's Version field carries the current version.
	CodeConflict = "conflict"
	// CodeReadOnly: the hosted database degraded to read-only after a disk
	// fault; mutations are refused while reads keep serving. Transient —
	// the store re-probes the disk — so retry after backoff. HTTP 503 with
	// Retry-After.
	CodeReadOnly = "read-only"
	// CodeVersionFenced: the request pinned a hosted-database version
	// (if_db_version) and this node's snapshot is at a different one. The
	// verdict was NOT computed — a snapshot the client did not ask for must
	// never answer. Do not retry the same node immediately (its version
	// will not change under you); a fleet coordinator fails the request
	// over to a replica at the right version instead. HTTP 412. The error
	// body's Version field carries the version this node is at.
	CodeVersionFenced = "version_fenced"
	// CodeUnavailable: a fleet coordinator exhausted every replica without
	// obtaining a verdict (all dead, partitioned, shedding, or fenced).
	// The request was answered by no one, so it is transient and safely
	// retryable after backoff. HTTP 503 with Retry-After. Only
	// coordinators emit this code; single nodes report their own condition
	// (shed, shutdown, read-only) directly.
	CodeUnavailable = "unavailable"
)

// StatusForCode maps a taxonomy code to the HTTP status it is served with.
// The fleet coordinator uses it to re-serialize worker and routing errors
// without carrying a status alongside every ErrorBody. Unknown codes map to
// 500 — an unrecognized condition is an internal fault, not a client one.
func StatusForCode(code string) int {
	switch code {
	case CodeMalformed:
		return http.StatusBadRequest
	case CodeUnsupported, CodePolicy:
		return http.StatusUnprocessableEntity
	case CodeShed:
		return http.StatusTooManyRequests
	case CodeShutdown, CodeReadOnly, CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeConflict:
		return http.StatusConflict
	case CodeVersionFenced:
		return http.StatusPreconditionFailed
	default:
		return http.StatusInternalServerError
	}
}

// ErrorBody is the JSON body of every non-200 response.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message,omitempty"`
	// RetryAfterMS, when positive, is the server's hint for when to retry
	// (shed, shutdown, and read-only responses). Also sent as the
	// Retry-After header.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Version is set on conflict responses: the database version the store
	// is actually at, so a CAS client can re-read and decide again without
	// an extra round trip.
	Version uint64 `json:"version,omitempty"`
	// Class is set on unsupported-compile responses: the wire code of the
	// query's complexity classification (e.g. "conp-complete"), so a caller
	// whose query has no FO rewriting can decide to fall back to /v1/solve
	// without a second classification round trip.
	Class string `json:"class,omitempty"`
}

// Error renders the error body.
func (e *ErrorBody) Error() string {
	if e.Message == "" {
		return "certd: " + e.Code
	}
	return fmt.Sprintf("certd: %s: %s", e.Code, e.Message)
}

// SolveRequest asks the server to decide CERTAINTY(q) for the query and
// database given in the shared textual formats. TimeoutMS and Budget are
// requests, not guarantees: the server clamps them to its policy and
// reports what it applied in SolveResponse.Clamped.
type SolveRequest struct {
	// Query in the textual query language, e.g. "R(x | y), S(y | x)".
	Query string `json:"query"`
	// DB in the textual database format, one fact per line or
	// comma-separated.
	DB string `json:"db"`
	// TimeoutMS bounds wall-clock solve time in milliseconds; 0 asks for
	// the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Budget caps governor search steps; 0 asks for the server default.
	Budget int64 `json:"budget,omitempty"`
	// DegradeSamples caps the Monte-Carlo samples drawn after a cutoff;
	// 0 means the solver default, negative disables sampling.
	DegradeSamples int `json:"degrade_samples,omitempty"`
	// SampleSeed seeds the degradation sampler (deterministic per seed).
	SampleSeed int64 `json:"sample_seed,omitempty"`
	// IfDBVersion, when set, fences the solve to an exact hosted-database
	// version: the server answers only if its snapshot is at this version,
	// and fails with CodeVersionFenced (HTTP 412) otherwise. Requires
	// solving against the hosted database (empty DB field on a server with
	// -data-dir); combining it with an inline DB is malformed. This is the
	// fleet's staleness fence — a lagging replica can never serve a verdict
	// for a snapshot the client did not ask for.
	IfDBVersion *uint64 `json:"if_db_version,omitempty"`
}

// ClampReport tells the client which of its requested limits the server
// tightened, and the effective values applied.
type ClampReport struct {
	Timeout   bool  `json:"timeout,omitempty"`
	Budget    bool  `json:"budget,omitempty"`
	TimeoutMS int64 `json:"timeout_ms"`
	BudgetVal int64 `json:"budget_val"`
}

// Breaker states reported in SolveResponse.Breaker.
const (
	// BreakerOpen: the class's breaker short-circuited this request to the
	// degraded Monte-Carlo path without running the exact search.
	BreakerOpen = "open"
	// BreakerProbe: the breaker was half-open and this request ran the
	// exact search as the recovery probe.
	BreakerProbe = "probe"
)

// Envelope is the response envelope shared by every per-query /v1 read
// endpoint (/v1/solve, /v1/classify, /v1/compile). It grew ad hoc across
// PRs — class on classify, cached/db_version/delta on solve — so it is now
// one documented struct, embedded by each response type; the JSON field
// names are unchanged, so pre-envelope clients keep decoding byte-identical
// shapes.
type Envelope struct {
	// Class is the wire code of the query's complexity classification
	// (e.g. "fo", "conp-complete"); see core.Class. Every endpoint reads it
	// off the query's shared compiled plan.
	Class core.Class `json:"class"`
	// Method is the wire code of the decision method the class selects
	// (e.g. "fo-rewriting", "safe-rewriting"). Empty on /v1/classify, which
	// reports the class alone even though it resolves the same plan.
	Method string `json:"method,omitempty"`
	// DBVersion is set when the request ran against the hosted database
	// (empty DB on a server started with -data-dir): the version of the
	// snapshot it was answered from.
	DBVersion *uint64 `json:"db_version,omitempty"`
	// Cached is true when the answer was served from a server-side cache
	// without recomputation (hosted solves only). Cached answers are
	// exact: the verdict cache stores only conclusive verdicts, keyed on
	// canonical query plus the versions of the query's relations.
	Cached bool `json:"cached,omitempty"`
	// Delta is true when a verdict was assembled incrementally: the solve
	// reused at least one memoized shard sub-verdict instead of recomputing
	// every shard. Still exact — reused sub-verdicts are content-addressed
	// by shard fingerprint.
	Delta bool `json:"delta,omitempty"`
}

// SolveResponse carries the three-valued verdict plus the service-level
// envelope. The verdict is exactly solver.Verdict's wire form, so remote
// and local solves surface identically.
type SolveResponse struct {
	Envelope
	Verdict solver.Verdict `json:"verdict"`
	// Clamped is present when the server tightened the requested limits.
	Clamped *ClampReport `json:"clamped,omitempty"`
	// Breaker is "" for a normal solve, BreakerOpen for a short-circuited
	// degraded answer, BreakerProbe for a half-open recovery probe.
	Breaker string `json:"breaker,omitempty"`
	// ElapsedMS is the server-side solve latency in milliseconds.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// BatchSolveItem is one instance of a batch. Empty Query or DB fields fall
// back to the batch-level defaults in BatchSolveRequest, so a batch of many
// queries over one snapshot (or one query over many snapshots) states the
// shared part once.
type BatchSolveItem struct {
	Query string `json:"query,omitempty"`
	DB    string `json:"db,omitempty"`
}

// BatchSolveRequest decides many CERTAINTY(q) instances in one request.
// The batch occupies a single worker slot; inside it, items (and, with
// Shards, sub-instances of each item) fan out on the process-wide bounded
// worker pool, and plan compilation is amortized across items sharing a
// canonical query. Limits (TimeoutMS, Budget, DegradeSamples, SampleSeed)
// apply per item and are clamped by server policy exactly like a single
// solve's.
type BatchSolveRequest struct {
	Items []BatchSolveItem `json:"items"`
	// Query and DB are defaults for items that omit theirs.
	Query string `json:"query,omitempty"`
	DB    string `json:"db,omitempty"`
	// Per-item limits; see SolveRequest for semantics.
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
	Budget         int64 `json:"budget,omitempty"`
	DegradeSamples int   `json:"degrade_samples,omitempty"`
	SampleSeed     int64 `json:"sample_seed,omitempty"`
	// Shards enables component-partitioned parallel solving per item: any
	// non-zero value solves each inline item on the finest partition, one
	// shard per co-occurrence component; 0 (default) solves it
	// monolithically. Hosted items are always sharded. Sharding never
	// changes verdicts.
	Shards int `json:"shards,omitempty"`
	// Stream asks for an NDJSON response: one BatchItemResult object per
	// line, written as each item completes (completion order, use Index to
	// reorder). Equivalent to sending "Accept: application/x-ndjson".
	Stream bool `json:"stream,omitempty"`
	// IfDBVersion fences the whole batch to an exact hosted-database
	// version, exactly like SolveRequest.IfDBVersion: the batch pins one
	// snapshot, and if that snapshot is at any other version the entire
	// request fails with CodeVersionFenced before any item is solved.
	IfDBVersion *uint64 `json:"if_db_version,omitempty"`
}

// BatchItemResult is one item's outcome. Exactly one of Verdict and Error
// is set: Error carries the same taxonomy codes as top-level failures
// (malformed, unsupported, internal), scoped to this item — other items are
// unaffected.
type BatchItemResult struct {
	Index   int             `json:"index"`
	Verdict *solver.Verdict `json:"verdict,omitempty"`
	Error   *ErrorBody      `json:"error,omitempty"`
	// Cached is true when the verdict came from the verdict cache.
	Cached bool `json:"cached,omitempty"`
}

// BatchSolveResponse is the non-streaming batch response: one result per
// item, in item order.
type BatchSolveResponse struct {
	Results []BatchItemResult `json:"results"`
	// Clamped is present when server policy tightened the requested limits.
	Clamped *ClampReport `json:"clamped,omitempty"`
	// ElapsedMS is the server-side wall-clock time for the whole batch.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// DBMutateRequest is the body of POST /v1/db/facts (insert) and
// DELETE /v1/db/facts (delete): facts in the shared textual database
// format, plus an optional compare-and-swap guard.
type DBMutateRequest struct {
	// Facts in the textual database format, e.g. "R(a | b) R(a | b2)".
	Facts string `json:"facts"`
	// IfVersion, when set, makes the mutation conditional: it applies only
	// if the database is at exactly this version, and fails with
	// CodeConflict (HTTP 409) otherwise. Mutations carrying IfVersion are
	// safely retryable — a retry of an already-applied mutation conflicts
	// instead of double-applying. Omitted means unconditional.
	IfVersion *uint64 `json:"if_version,omitempty"`
}

// DBMutateResponse reports a committed (durable and published) mutation.
type DBMutateResponse struct {
	// Version after the mutation. Unchanged from before when the request
	// was a no-op (inserting only present facts / deleting only absent
	// ones), which is reported by Applied == 0.
	Version uint64 `json:"version"`
	// Applied counts the facts actually inserted plus actually deleted.
	Applied int `json:"applied"`
}

// DBGetResponse describes the hosted database (GET /v1/db). The fact dump
// is included only when requested with ?facts=1 — snapshots can be large.
type DBGetResponse struct {
	Version   uint64   `json:"version"`
	NumFacts  int      `json:"num_facts"`
	NumBlocks int      `json:"num_blocks"`
	Relations []string `json:"relations,omitempty"`
	// Digest is the content digest of the snapshot (db.DB.Digest), hashed
	// from its facts on every request.
	Digest string `json:"digest"`
	// ReadOnly is true while the store is degraded after a disk fault.
	ReadOnly bool `json:"read_only,omitempty"`
	// Facts is the textual dump, present only with ?facts=1.
	Facts string `json:"facts,omitempty"`
}

// ClassifyRequest asks for the complexity classification of a query alone;
// classification is polynomial in the query, so these requests bypass the
// worker pool.
type ClassifyRequest struct {
	Query string `json:"query"`
}

// ClassifyResponse reports the Koutris–Wijsen-style classification of the
// query: the class of CERTAINTY(q) and whether it is tractable. The class
// itself travels in the shared Envelope.
type ClassifyResponse struct {
	Envelope
	Reason string `json:"reason,omitempty"`
	InP    bool   `json:"in_p"`
}

// CompileRequest asks the server to compile the query's consistent
// first-order rewriting to an executable backend program
// (POST /v1/compile). Compilation is per-query work — no database is
// involved — so, like classification, these requests bypass the worker
// pool.
type CompileRequest struct {
	// Query in the textual query language, e.g. "R(x | y), S(y | x)".
	Query string `json:"query"`
	// Dialect selects the backend language: "sql" (default) or "datalog".
	Dialect string `json:"dialect,omitempty"`
}

// CompileResponse carries the emitted program. Only FO-class queries
// compile; for any other class the endpoint answers 422 with
// code="unsupported" and the classification's wire code in
// ErrorBody.Class, so the caller can fall back to /v1/solve.
type CompileResponse struct {
	Envelope
	// Dialect echoes the emitted dialect ("sql" or "datalog").
	Dialect string `json:"dialect"`
	// Program is the complete, self-contained program text: for SQL one
	// statement whose single boolean column `certain` is the certain
	// answer; for Datalog a stratified rule set whose goal predicate
	// `certain` is derived iff the query is certain.
	Program string `json:"program"`
	// SchemaNotes documents the schema convention the program assumes
	// (table/predicate naming, column order, key prefix).
	SchemaNotes string `json:"schema_notes,omitempty"`
}

// HealthResponse is the body of /healthz and /readyz.
type HealthResponse struct {
	Status   string `json:"status"`
	Workers  int    `json:"workers"`
	Inflight int64  `json:"inflight"`
	Queued   int64  `json:"queued"`
	Draining bool   `json:"draining"`
	// ReadOnly is true while the hosted store is degraded after a disk
	// fault. /readyz reports 503 for the duration so load balancers and
	// fleet health probes stop routing to the degraded node; /healthz keeps
	// answering 200 (the process is alive and still serves reads).
	ReadOnly bool `json:"read_only,omitempty"`
}

// StatszResponse is the body of /v1/statsz: occupancy and hit/miss/eviction
// counters for each serving-layer cache. Plans counts one lookup per
// solve, classify and compile request and per batch item. Verdicts counts
// hosted solves and batch items only, so it is all-zero when stateless or
// when the verdict cache is disabled (VerdictCacheSize < 0).
type StatszResponse struct {
	Plans    lru.Stats `json:"plans"`
	Verdicts lru.Stats `json:"verdicts"`
	// ShardMemo is the per-shard verdict memo behind delta re-solve
	// (all-zero when stateless). Entries leave it only by capacity
	// eviction.
	ShardMemo lru.Stats `json:"shard_memo"`
	// ShardMemoPartitions is the census of the shard partitions the memo
	// keeps, one per recently solved plan: how many, the co-occurrence
	// components they hold, and how many of those have no kept outcome
	// (absent when stateless).
	ShardMemoPartitions *solver.PartitionStats `json:"shard_memo_partitions,omitempty"`
	// Intern is the symbol-interner census of the hosted database's
	// columnar view (all-zero when certd runs stateless). A scrape never
	// builds the view: it reports the view the current snapshot holds, or
	// the last census reported when a write dropped it.
	Intern intern.Stats `json:"intern"`
}
