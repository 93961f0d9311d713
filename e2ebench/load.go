package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cqa-go/certainty/internal/solver"
)

// failure counts failed operations under one code: a server error code, or
// one of the generator's own codes below.
type failure struct {
	code string
	n    int
}

// Generator-side failure codes. Server error codes (shed, unavailable,
// version_fenced, ...) are used as the server sends them.
const (
	failTransport = "transport"
	failUnknown   = "unknown_outcome"
	failWrong     = "wrong_verdict"
	failGarbled   = "garbled_response"
)

// sample is one op as the generator saw it.
type sample struct {
	op   int
	kind opKind
	// lat runs from the scheduled send time (open loop) or the actual send
	// time (closed loop) to the end of the response body; at is that start
	// as an offset into the phase.
	lat, at time.Duration
	// lag is how late an idle sender sent an open-loop op: the generator's
	// own lateness, as opposed to waiting for a busy sender.
	lag       time.Duration
	attempted int // operations: 1, or the items of a batch
	verdicts  int // verdicts that came back and matched
	fails     []failure
}

func (s *sample) failed() int {
	n := 0
	for _, f := range s.fails {
		n += f.n
	}
	return n
}

// requestFailed reports whether the request itself failed (transport or
// non-200); item-level failures of an answered batch do not count.
func (s *sample) requestFailed() bool {
	return s.verdicts == 0 && s.failed() == s.attempted && s.attempted > 0
}

type outcomeWire struct {
	Outcome solver.Outcome `json:"outcome"`
}

type errorWire struct {
	Code string `json:"code"`
}

// check classifies one response against the op's expected verdicts.
func check(o *op, status int, body []byte, err error) sample {
	s := sample{kind: o.kind, attempted: 1}
	if o.kind == opBatch {
		s.attempted = len(o.want)
	}
	fail := func(code string, n int) { s.fails = append(s.fails, failure{code, n}) }
	if err != nil {
		fail(failTransport, s.attempted)
		return s
	}
	if status != http.StatusOK {
		var e errorWire
		if json.Unmarshal(body, &e) != nil || e.Code == "" {
			e.Code = "http_" + strconv.Itoa(status)
		}
		fail(e.Code, s.attempted)
		return s
	}
	verdict := func(got, want solver.Outcome) {
		switch {
		case got == solver.OutcomeUnknown:
			fail(failUnknown, 1)
		case got != want:
			fail(failWrong, 1)
		default:
			s.verdicts++
		}
	}
	switch o.kind {
	case opSolve:
		var r struct {
			Verdict outcomeWire `json:"verdict"`
		}
		if json.Unmarshal(body, &r) != nil {
			fail(failGarbled, 1)
			return s
		}
		verdict(r.Verdict.Outcome, o.want[0])
	case opBatch:
		var r struct {
			Results []struct {
				Index   int          `json:"index"`
				Verdict *outcomeWire `json:"verdict"`
				Error   *errorWire   `json:"error"`
			} `json:"results"`
		}
		if json.Unmarshal(body, &r) != nil || len(r.Results) != len(o.want) {
			fail(failGarbled, s.attempted)
			return s
		}
		for i, it := range r.Results {
			switch {
			case it.Index != i || (it.Error == nil && it.Verdict == nil):
				fail(failGarbled, 1)
			case it.Error != nil:
				fail(it.Error.Code, 1)
			default:
				verdict(it.Verdict.Outcome, o.want[i])
			}
		}
	}
	return s
}

// loader sends ops to one node over plain net/http: no retries, so every
// shed, unavailable or fenced response counts as a failure.
type loader struct {
	client *http.Client
	url    string
	// keep, when set, receives each response body (traced passes keep a
	// sample for the direct-call timings).
	keep func(op int, body []byte)
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func (d *loader) send(ctx context.Context, idx int, o *op) sample {
	req, err := http.NewRequestWithContext(ctx, o.method, d.url+o.path, bytes.NewReader(o.body))
	if err != nil {
		panic(err) // generated requests are well-formed
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(idx))
	status, body := 0, []byte(nil)
	resp, err := d.client.Do(req)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	if err == nil && d.keep != nil {
		d.keep(idx, body)
	}
	s := check(o, status, body, err)
	s.op = idx
	return s
}

// senders runs fn on n goroutines and waits for them. A panic on a sender
// is re-raised here, on the caller's goroutine, so the run's cleanup sees it.
func senders(n int, fn func(sender int)) {
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { panicked = p })
				}
			}()
			fn(s)
		}(s)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// open sends ops[i] at start+sched[i] from n senders and times each op from
// its scheduled send time, so a stall is charged to every op it delays.
func (d *loader) open(ctx context.Context, ops []op, sched []time.Duration, n int) []sample {
	out := make([]sample, len(sched))
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	senders(n, func(int) {
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		idle := time.Now()
		for {
			i := int(next.Add(1) - 1)
			if i >= len(sched) || ctx.Err() != nil {
				return
			}
			due := start.Add(sched[i])
			if wait := time.Until(due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
			}
			sent := time.Now()
			s := d.send(ctx, i, &ops[i])
			if idle.Before(due) {
				s.lag = sent.Sub(due)
			}
			idle = time.Now()
			s.lat = idle.Sub(due)
			s.at = sched[i]
			out[i] = s
		}
	})
	return out[:min(int(next.Load()), len(sched))]
}

// closed keeps n senders busy back to back for dur, walking ops cyclically
// from first; limit, when positive, caps the ops sent. It returns the
// samples and the wall time until the last response.
func (d *loader) closed(ctx context.Context, ops []op, first int, dur time.Duration, n, limit int) ([]sample, time.Duration) {
	per := make([][]sample, n)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	senders(n, func(sender int) {
		for ctx.Err() == nil && time.Now().Before(deadline) {
			k := int(next.Add(1) - 1)
			if limit > 0 && k >= limit {
				return
			}
			i := (first + k) % len(ops)
			sent := time.Now()
			s := d.send(ctx, i, &ops[i])
			s.lat = time.Since(sent)
			s.at = sent.Sub(start)
			per[sender] = append(per[sender], s)
		}
	})
	elapsed := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}
