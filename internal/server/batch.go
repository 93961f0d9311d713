package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/solver"
)

// Batch metric names. Items carry the same class/verdict labels as single
// solves via certd_solve_total; these add the batch-shaped view.
const (
	metricBatchTotal      = "certd_batch_total"
	metricBatchItemsTotal = "certd_batch_items_total"
	metricBatchSeconds    = "certd_batch_seconds"
)

// ndjsonContentType is the streaming batch response media type.
const ndjsonContentType = "application/x-ndjson"

// batchItem is one parsed, planned, not-yet-solved batch item.
type batchItem struct {
	index  int
	q      cq.Query
	d      *db.DB
	hosted bool   // d is the pinned hosted snapshot
	class  string // the plan's class wire code
	vkey   string // verdict-cache key; "" unless hosted and caching is on
}

// handleSolveBatch decides a batch of instances in one request. The batch
// occupies one admission slot; inside it, items and shards fan out on the
// process-wide worker gate, so a batch can saturate the machine without
// multiplying past it. Item-level failures (parse, classification, solve)
// come back inline in that item's result; the request itself fails only for
// transport-level problems (malformed body, empty batch, overload, drain).
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, CodeShutdown, "server is draining")
		return
	}
	req, err := decodeBatchRequest(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "body: "+err.Error())
		return
	}
	if len(req.Items) == 0 {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "batch has no items")
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.writeError(w, http.StatusUnprocessableEntity, CodePolicy,
			fmt.Sprintf("batch has %d items, server maximum is %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}

	opts, clamped, err := s.requestLimits(req.TimeoutMS, req.Budget, req.DegradeSamples, req.SampleSeed)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, CodePolicy, err.Error())
		return
	}
	opts.Sharded = req.Shards != 0

	// Resolve every item up front: parse failures and cached hosted
	// verdicts are settled before any admission, the rest queue for
	// solving.
	results := make([]BatchItemResult, len(req.Items))
	var pending []batchItem
	dbCache := make(map[string]*db.DB) // batches often repeat the DB text; parse it once
	if s.cfg.Store != nil {
		// Pin ONE hosted snapshot for the whole batch: items with an empty
		// DB all see the same version even if mutations land mid-batch.
		hosted, v := s.cfg.Store.DB()
		dbCache[""] = hosted
		// The staleness fence, batch form: the pinned snapshot must be at
		// exactly the fenced version or the whole request fails before any
		// item runs — a torn batch (half at one version, half unanswered)
		// would be worse than no answer.
		if req.IfDBVersion != nil && v != *req.IfDBVersion {
			s.writeErrorBody(w, http.StatusPreconditionFailed, &ErrorBody{
				Code: CodeVersionFenced,
				Message: fmt.Sprintf("hosted database is at version %d, batch fenced to %d",
					v, *req.IfDBVersion),
				Version: v,
			})
			return
		}
	} else if req.IfDBVersion != nil {
		s.writeError(w, http.StatusBadRequest, CodeMalformed,
			"if_db_version requires solving against the hosted database")
		return
	}
	for i, it := range req.Items {
		results[i] = BatchItemResult{Index: i}
		queryText := it.Query
		if queryText == "" {
			queryText = req.Query
		}
		dbText := it.DB
		if dbText == "" {
			dbText = req.DB
		}
		q, err := cq.ParseQuery(queryText)
		if err != nil {
			results[i].Error = &ErrorBody{Code: CodeMalformed, Message: "query: " + err.Error()}
			continue
		}
		d, ok := dbCache[dbText]
		if !ok {
			d, err = db.Parse(dbText)
			if err != nil {
				results[i].Error = &ErrorBody{Code: CodeMalformed, Message: "db: " + err.Error()}
				continue
			}
			dbCache[dbText] = d
		}
		p, err := s.plans.Get(r.Context(), q)
		if err != nil {
			results[i].Error = &ErrorBody{Code: CodeUnsupported, Message: err.Error()}
			continue
		}
		item := batchItem{index: i, q: q, d: d, hosted: s.cfg.Store != nil && dbText == "", class: p.Class.Code()}
		if item.hosted && s.verdicts != nil {
			item.vkey = verdictKey(p, d)
			if v, ok := s.verdicts.get(item.vkey); ok {
				results[i].Verdict = &v
				results[i].Cached = true
				s.countSolve(item.class, v)
				continue
			}
		}
		pending = append(pending, item)
	}

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
		return // client went away while queued
	}
	defer s.release()
	s.mInflight.Set(s.inflight.Add(1))
	defer func() { s.mInflight.Set(s.inflight.Add(-1)) }()

	stream := req.Stream || strings.Contains(r.Header.Get("Accept"), ndjsonContentType)
	var streamOut *batchStreamer
	if stream {
		streamOut = newBatchStreamer(w)
		// Items settled before admission (parse errors, cache hits) stream
		// first, in item order.
		for i := range results {
			if results[i].Error != nil || results[i].Verdict != nil {
				streamOut.emit(results[i])
			}
		}
	}

	// The solve obeys both the client and the drain, like a single solve.
	ctx, cancel := contextWithDrain(r.Context(), s.drainCtx)
	defer cancel()

	// Hosted items take the hosted solve path: the shard memo and the
	// kept partitions, as a single hosted solve does.
	items := make([]solver.BatchItem, len(pending))
	for k, it := range pending {
		items[k] = solver.BatchItem{Query: it.q, DB: it.d}
		if it.hosted {
			items[k].Memo = s.shardMemo
		}
	}
	var mu sync.Mutex
	finish := func(br solver.BatchResult) BatchItemResult {
		it := pending[br.Index]
		out := BatchItemResult{Index: it.index}
		if br.Err != nil {
			out.Error = &ErrorBody{Code: CodeInternal, Message: br.Err.Error()}
			s.reg.Counter(metricBatchItemsTotal, obs.L{K: "verdict", V: "error"}).Inc()
			return out
		}
		v := br.Verdict
		out.Verdict = &v
		s.countDelta(br.Report)
		if it.vkey != "" && v.Err == nil && v.Outcome != solver.OutcomeUnknown {
			s.verdicts.put(it.vkey, v)
		}
		s.countSolve(it.class, v)
		s.reg.Counter(metricBatchItemsTotal, obs.L{K: "verdict", V: verdictKind(v)}).Inc()
		return out
	}

	start := time.Now()
	solver.SolveBatch(ctx, items, opts, s.plans, func(br solver.BatchResult) {
		mu.Lock()
		out := finish(br)
		results[out.Index] = out
		mu.Unlock()
		if streamOut != nil {
			streamOut.emit(out)
		}
	})
	elapsed := time.Since(start)

	s.reg.Counter(metricBatchTotal).Inc()
	s.reg.Histogram(metricBatchSeconds, nil).Observe(elapsed.Seconds())
	s.logf("batch: %d items (%d cached/settled) in %v", len(req.Items), len(req.Items)-len(pending), elapsed)

	if streamOut != nil {
		return // every result already on the wire
	}
	writeJSON(w, http.StatusOK, BatchSolveResponse{Results: results, Clamped: clamped, ElapsedMS: elapsed.Milliseconds()})
}

// contextWithDrain derives a context cancelled by either the request's
// context or the server's drain signal. The returned cancel releases both.
func contextWithDrain(parent, drain context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	stop := context.AfterFunc(drain, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// batchStreamer writes NDJSON item results as they complete, flushing after
// each line so clients see verdicts without waiting for the whole batch.
type batchStreamer struct {
	mu    sync.Mutex
	w     http.ResponseWriter
	enc   *json.Encoder
	flush func()
}

func newBatchStreamer(w http.ResponseWriter) *batchStreamer {
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	b := &batchStreamer{w: w, enc: json.NewEncoder(w), flush: func() {}}
	if f, ok := w.(http.Flusher); ok {
		b.flush = f.Flush
	}
	return b
}

func (b *batchStreamer) emit(r BatchItemResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	_ = b.enc.Encode(&r) // Encode appends the newline NDJSON needs
	b.flush()
}
