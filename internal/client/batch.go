package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/server"
)

// transientItem reports whether an item-level error is worth retrying as an
// individual solve: shed, shutdown, internal, and fleet-unavailable
// failures are transient; malformed and unsupported items can never
// succeed.
func transientItem(e *server.ErrorBody) bool {
	if e == nil {
		return false
	}
	switch e.Code {
	case server.CodeShed, server.CodeShutdown, server.CodeInternal, server.CodeUnavailable:
		return true
	}
	return false
}

// itemRequest reconstructs the single-solve request equivalent to one batch
// item, resolving the batch-level defaults.
func itemRequest(req server.BatchSolveRequest, i int) server.SolveRequest {
	it := req.Items[i]
	single := server.SolveRequest{
		Query:          it.Query,
		DB:             it.DB,
		TimeoutMS:      req.TimeoutMS,
		Budget:         req.Budget,
		DegradeSamples: req.DegradeSamples,
		SampleSeed:     req.SampleSeed,
	}
	if single.Query == "" {
		single.Query = req.Query
	}
	if single.DB == "" {
		single.DB = req.DB
	}
	return single
}

// retryItems re-solves every result with a transient item-level error as an
// individual /v1/solve call (which brings the client's own backoff-and-retry
// machinery to bear on just that item) and patches the successes back in
// place. Permanent item errors are left as-is.
func (c *Client) retryItems(ctx context.Context, req server.BatchSolveRequest, results []server.BatchItemResult) {
	if c.NoItemRetry {
		return
	}
	for k := range results {
		if !transientItem(results[k].Error) {
			continue
		}
		i := results[k].Index
		if i < 0 || i >= len(req.Items) {
			continue
		}
		c.registry().Counter("client_item_retries_total").Inc()
		resp, err := c.Solve(ctx, itemRequest(req, i))
		if err != nil {
			continue // keep the original transient error
		}
		v := resp.Verdict
		results[k] = server.BatchItemResult{Index: i, Verdict: &v, Cached: resp.Cached}
	}
}

func init() {
	obs.Default.Help("client_item_retries_total", "Batch items re-solved individually after a transient item-level error.")
}

// SolveBatch posts a batch request and returns one result per item, in item
// order. The whole-request retry policy is the same as Solve's; afterwards,
// items that failed with a transient error (shed, shutdown, internal) are
// retried as individual solves — a single poisoned or unlucky item does not
// force the client to resubmit the whole batch.
func (c *Client) SolveBatch(ctx context.Context, req server.BatchSolveRequest) (server.BatchSolveResponse, error) {
	req.Stream = false
	var resp server.BatchSolveResponse
	if err := c.do(ctx, "/v1/solve/batch", req, &resp); err != nil {
		return resp, err
	}
	c.retryItems(ctx, req, resp.Results)
	return resp, nil
}

// SolveStream posts a batch request in streaming mode and invokes fn once
// per item as the server emits it (completion order; use Index to reorder).
// Items that arrive with a transient error are retried as individual solves
// before fn sees them. Once the stream has begun, a mid-stream transport
// failure is returned without retrying the whole batch — items already
// delivered stay delivered. It is SolveStreamBody after json.Marshal.
func (c *Client) SolveStream(ctx context.Context, req server.BatchSolveRequest, fn func(server.BatchItemResult)) error {
	req.Stream = true
	payload, err := json.Marshal(req)
	if err != nil {
		c.registry().Counter("client_requests_total", obs.L{K: "path", V: batchPath}, obs.L{K: "outcome", V: "error"}).Inc()
		return fmt.Errorf("client: encode request: %w", err)
	}
	return c.SolveStreamBody(ctx, payload, func(item server.BatchItemResult) {
		if transientItem(item.Error) && !c.NoItemRetry && item.Index >= 0 && item.Index < len(req.Items) {
			// Per-item retry, inline: the stream stays ordered from fn's
			// point of view, the item just took the single-solve detour.
			if sresp, serr := c.Solve(ctx, itemRequest(req, item.Index)); serr == nil {
				v := sresp.Verdict
				item = server.BatchItemResult{Index: item.Index, Verdict: &v, Cached: sresp.Cached}
			}
		}
		fn(item)
	})
}

// batchPath is the batch endpoint.
const batchPath = "/v1/solve/batch"

// SolveStreamBody posts payload, an encoded batch request, in streaming
// mode and invokes fn once per item as the server emits it, with the
// whole-request retry policy of SolveStream and no per-item retry. A fleet
// coordinator sends the sub-batches it writes from a client's body with
// it.
func (c *Client) SolveStreamBody(ctx context.Context, payload []byte, fn func(server.BatchItemResult)) error {
	r := c.registry()
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		r.Counter("client_attempts_total", obs.L{K: "path", V: batchPath}).Inc()
		retry, hint, err := c.streamAttempt(ctx, httpc, payload, fn)
		if err == nil {
			r.Counter("client_requests_total", obs.L{K: "path", V: batchPath}, obs.L{K: "outcome", V: "ok"}).Inc()
			return nil
		}
		lastErr = err
		if !retry || attempt >= c.MaxRetries {
			r.Counter("client_requests_total", obs.L{K: "path", V: batchPath}, obs.L{K: "outcome", V: "error"}).Inc()
			return lastErr
		}
		r.Counter("client_retries_total", obs.L{K: "path", V: batchPath}).Inc()
		if err := c.backoff(ctx, attempt, hint); err != nil {
			r.Counter("client_requests_total", obs.L{K: "path", V: batchPath}, obs.L{K: "outcome", V: "error"}).Inc()
			return fmt.Errorf("client: giving up after %d attempts: %w (last error: %v)", attempt+1, err, lastErr)
		}
	}
}

// streamAttempt sends the streaming request once and pumps NDJSON lines to
// fn. Failures before the first delivered item may be retried; after that
// the attempt is not retryable (retry=false) so delivered items are never
// replayed.
func (c *Client) streamAttempt(ctx context.Context, httpc *http.Client, payload []byte, fn func(server.BatchItemResult)) (retry bool, hint time.Duration, err error) {
	hreq, err := http.NewRequestWithContext(ctx, "POST", c.BaseURL+batchPath, bytes.NewReader(payload))
	if err != nil {
		return false, 0, fmt.Errorf("client: build request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "application/x-ndjson")
	resp, err := httpc.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return false, 0, ctx.Err()
		}
		return true, 0, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		limit := c.MaxResponseBytes
		if limit <= 0 {
			limit = 64 << 20
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, limit))
		body := new(server.ErrorBody)
		if json.Unmarshal(data, body) != nil || body.Code == "" {
			retryOK, h := retryable(resp.StatusCode, nil)
			return retryOK, h, fmt.Errorf("client: HTTP %d: %s", resp.StatusCode, data)
		}
		c.fillRetryHint(body, resp.Header)
		retryOK, h := retryable(resp.StatusCode, body)
		return retryOK, h, body
	}

	sc := bufio.NewScanner(resp.Body)
	maxLine := int(c.MaxResponseBytes)
	if maxLine <= 0 {
		maxLine = 64 << 20
	}
	// A result line is a few hundred bytes: the buffer starts at the
	// scanner's default size and grows only for a longer one.
	sc.Buffer(nil, maxLine)
	delivered := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var item server.BatchItemResult
		if err := json.Unmarshal(line, &item); err != nil {
			return false, 0, fmt.Errorf("client: decode stream item: %w", err)
		}
		delivered = true
		fn(item)
	}
	if err := sc.Err(); err != nil {
		// A torn stream is retryable only if nothing was delivered yet.
		return !delivered, 0, fmt.Errorf("client: read stream: %w", err)
	}
	return false, 0, nil
}
