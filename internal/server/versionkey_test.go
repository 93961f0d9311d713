package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/solver"
	"github.com/cqa-go/certainty/internal/wal"
)

// The queries the version-key harness solves: one over {R, S}, one over
// {U}, and one over all three, so a write to one relation leaves some keys
// unchanged and moves others.
var versionKeyQueries = []string{
	"R(x | y), S(y | z)",
	"U(x | 'c')",
	"R(x | y), S(y | z), U(u | v)",
}

// hostedAnswer is one verdict a hosted solve or batch item reported, with
// the database version it was answered at.
type hostedAnswer struct {
	version uint64
	query   string
	outcome solver.Outcome
	cached  bool
	delta   bool
}

// snapshotLog records the hosted database's facts at every version a test
// produced, so each answer can be checked against a fresh parse of the
// snapshot it reports. Only the writing goroutine records.
type snapshotLog struct {
	facts map[uint64]string
}

func (l *snapshotLog) record(t *testing.T, st *wal.Store, want uint64) {
	t.Helper()
	d, v := st.DB()
	if v != want {
		t.Errorf("store at version %d right after a write answered %d", v, want)
		return
	}
	l.facts[v] = d.String()
}

// check solves every answer's query on a fresh parse of its snapshot and
// reports each disagreement.
func (l *snapshotLog) check(t *testing.T, answers []hostedAnswer) {
	t.Helper()
	type instance struct {
		version uint64
		query   string
	}
	fresh := make(map[instance]solver.Outcome)
	for _, a := range answers {
		in := instance{a.version, a.query}
		want, ok := fresh[in]
		if !ok {
			facts, recorded := l.facts[a.version]
			if !recorded {
				t.Errorf("answer at unrecorded version %d", a.version)
				continue
			}
			v, err := solver.SolveCtx(context.Background(), cq.MustParseQuery(a.query), db.MustParse(facts), solver.Options{})
			if err != nil {
				t.Fatalf("fresh solve of %s at version %d: %v", a.query, a.version, err)
			}
			want = v.Outcome
			fresh[in] = want
		}
		if a.outcome != want {
			t.Errorf("%s at version %d: served %v (cached %v, delta %v), fresh parse %v",
				a.query, a.version, a.outcome, a.cached, a.delta, want)
		}
	}
}

// writeSchedule draws the seeded writes of the harness over R, S and U:
// inserts and deletes over small domains (so writes land in existing
// blocks), undos of earlier writes, U emptied and later recreated, and
// no-op writes. It keeps the model of the hosted facts the draws need.
type writeSchedule struct {
	r       *rand.Rand
	present map[string]db.Fact
	history []write // applied writes, for undos
	undos   int     // undos drawn
}

type write struct {
	method string
	facts  []db.Fact
}

func (w *writeSchedule) fact() db.Fact {
	pick := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, 1+w.r.Intn(n)) }
	switch w.r.Intn(3) {
	case 0:
		val := pick("b", 3)
		if w.r.Intn(3) == 0 {
			val = "x" // no S fact ever joins x
		}
		return db.Fact{Rel: "R", KeyLen: 1, Args: []string{pick("a", 3), val}}
	case 1:
		return db.Fact{Rel: "S", KeyLen: 1, Args: []string{pick("b", 3), pick("c", 2)}}
	default:
		return db.Fact{Rel: "U", KeyLen: 1, Args: []string{pick("u", 2), []string{"c", "d"}[w.r.Intn(2)]}}
	}
}

// next returns the next write; apply must be called once it committed.
func (w *writeSchedule) next() write {
	sorted := func(rel string) []db.Fact {
		var out []db.Fact
		for _, f := range w.present {
			if rel == "" || f.Rel == rel {
				out = append(out, f)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
		return out
	}
	switch op := w.r.Intn(10); {
	case op < 4 || len(w.present) == 0:
		fs := []db.Fact{w.fact()}
		for w.r.Intn(2) == 0 && len(fs) < 3 {
			fs = append(fs, w.fact())
		}
		return write{"POST", fs}
	case op < 6:
		all := sorted("")
		return write{"DELETE", []db.Fact{all[w.r.Intn(len(all))]}}
	case op < 8 && len(w.history) > 0:
		// Undo an earlier write: delete what it inserted, re-insert what
		// it deleted.
		h := w.history[w.r.Intn(len(w.history))]
		w.undos++
		if h.method == "POST" {
			return write{"DELETE", h.facts}
		}
		return write{"POST", h.facts}
	case op == 8:
		if us := sorted("U"); len(us) > 0 {
			return write{"DELETE", us} // empty U; later inserts recreate it
		}
		return write{"POST", []db.Fact{{Rel: "U", KeyLen: 1, Args: []string{"u1", "c"}}}}
	default:
		all := sorted("")
		return write{"POST", []db.Fact{all[w.r.Intn(len(all))]}} // no-op
	}
}

// apply updates the model with a committed write and records the facts it
// actually changed, which an undo reverses.
func (w *writeSchedule) apply(wr write) {
	var changed []db.Fact
	for _, f := range wr.facts {
		_, had := w.present[f.ID()]
		switch {
		case wr.method == "POST" && !had:
			w.present[f.ID()] = f
			changed = append(changed, f)
		case wr.method == "DELETE" && had:
			delete(w.present, f.ID())
			changed = append(changed, f)
		}
	}
	if len(changed) > 0 {
		w.history = append(w.history, write{wr.method, changed})
	}
}

func factText(fs []db.Fact) string {
	lines := make([]string, len(fs))
	for i, f := range fs {
		lines[i] = f.String()
	}
	return strings.Join(lines, "\n")
}

// solveHostedAll answers every harness query once as a single hosted solve
// and once as an item of one hosted batch fenced to version v, the version
// the caller believes current; a fenced-off batch is dropped (it answered
// nothing). It returns the answers, and reports failures with t.Errorf
// only, so readers may call it off the test goroutine.
func solveHostedAll(t *testing.T, s *Server, v uint64) []hostedAnswer {
	t.Helper()
	var out []hostedAnswer
	for _, q := range versionKeyQueries {
		var resp SolveResponse
		rec := doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: q})
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil || resp.DBVersion == nil {
			t.Errorf("hosted solve of %s: status %d, body %s", q, rec.Code, rec.Body)
			return out
		}
		out = append(out, hostedAnswer{*resp.DBVersion, q, resp.Verdict.Outcome, resp.Cached, resp.Delta})
	}
	req := BatchSolveRequest{IfDBVersion: &v}
	for _, q := range versionKeyQueries {
		req.Items = append(req.Items, BatchSolveItem{Query: q})
	}
	rec := doJSON(t, s, nil, "POST", "/v1/solve/batch", req)
	if rec.Code == http.StatusPreconditionFailed {
		return out
	}
	var resp BatchSolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
		t.Errorf("hosted batch: status %d, body %s", rec.Code, rec.Body)
		return out
	}
	for i, it := range resp.Results {
		if it.Error != nil || it.Verdict == nil {
			t.Errorf("hosted batch item %d = %+v, want a verdict", i, it)
			continue
		}
		out = append(out, hostedAnswer{v, versionKeyQueries[i], it.Verdict.Outcome, it.Cached, false})
	}
	return out
}

// TestHostedVerdictsMatchFresh is the version-key soundness harness: seeded
// hosted writes over R, S and U — undos of earlier writes, U emptied and
// recreated, no-op writes among them — interleaved with hosted single and
// batch solves of queries over {R, S}, {U} and {R, S, U}. Every answer,
// whether served from the verdict cache, assembled from memoized shards or
// solved fresh, must equal a from-scratch solve of a fresh parse of the
// snapshot at the version it reports.
func TestHostedVerdictsMatchFresh(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s, st := newStoreServer(t, nil)
			snaps := &snapshotLog{facts: map[uint64]string{0: ""}}
			w := &writeSchedule{r: rand.New(rand.NewSource(4201 + seed)), present: map[string]db.Fact{}}
			var answers []hostedAnswer
			v := uint64(0)
			var noops, recreated int
			hadU, emptied := false, false
			for step := 0; step < 40; step++ {
				wr := w.next()
				prev := v
				v = mutateHosted(t, s, wr.method, factText(wr.facts))
				w.apply(wr)
				if v == prev {
					noops++
				}
				if d, _ := st.DB(); d.RelationVersion("U") == 0 {
					emptied = hadU
				} else {
					if emptied {
						recreated++
					}
					hadU, emptied = true, false
				}
				snaps.record(t, st, v)
				answers = append(answers, solveHostedAll(t, s, v)...)
			}
			snaps.check(t, answers)
			// The harness must reach every write kind and serving path it is
			// meant to check.
			if noops == 0 || w.undos == 0 || recreated == 0 {
				t.Errorf("schedule drew %d no-op writes, %d undos and %d recreations of U; want each", noops, w.undos, recreated)
			}
			var cached, delta int
			for _, a := range answers {
				if a.cached {
					cached++
				}
				if a.delta {
					delta++
				}
			}
			if cached == 0 || delta == 0 {
				t.Errorf("%d answers with %d cached and %d delta: a serving path went unexercised", len(answers), cached, delta)
			}
		})
	}
}

// TestHostedVerdictsMatchFreshConcurrent is the harness's concurrent form:
// readers send hosted single solves and fenced batches while one writer
// runs the seeded schedule and records each snapshot by version. Run it
// under -race.
func TestHostedVerdictsMatchFreshConcurrent(t *testing.T) {
	s, st := newStoreServer(t, nil)
	snaps := &snapshotLog{facts: map[uint64]string{0: ""}}
	w := &writeSchedule{r: rand.New(rand.NewSource(77)), present: map[string]db.Fact{}}

	done := make(chan struct{})
	var mu sync.Mutex
	var answers []hostedAnswer
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got := solveHostedAll(t, s, st.Version())
				mu.Lock()
				answers = append(answers, got...)
				mu.Unlock()
			}
		}()
	}
	for step := 0; step < 40; step++ {
		wr := w.next()
		v := mutateHosted(t, s, wr.method, factText(wr.facts))
		w.apply(wr)
		snaps.record(t, st, v)
	}
	close(done)
	readers.Wait()
	if len(answers) == 0 {
		t.Fatal("the readers answered nothing")
	}
	snaps.check(t, answers)
}
