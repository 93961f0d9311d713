package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/lru"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/solver"
)

// TestHostedDeltaResolve drives the delta re-solve loop over HTTP: a hosted
// solve populates the shard memo, a one-block mutation changes only the
// covering shard's fingerprint, and the next solve reuses the untouched
// shards' memoized sub-verdicts — reported by the response's delta marker,
// the statsz memo counters, and the certd_delta_* metrics. Verdicts must
// match what a stateless solve of the same snapshot computes.
func TestHostedDeltaResolve(t *testing.T) {
	s, _ := newStoreServer(t, nil)
	if s.shardMemo == nil {
		t.Fatal("hosted server has no shard memo; delta re-solve is wired off by default")
	}

	// Three independent, never-certain chain groups (no disjunction
	// short-circuit: every shard is solved and memoized).
	decodeMutate(t, doJSON(t, s, nil, "POST", "/v1/db/facts", DBMutateRequest{
		Facts: `R(a1 | b1) R(a1 | x1) S(b1 | c1)
		        R(a2 | b2) R(a2 | x2) S(b2 | c2)
		        R(a3 | b3) R(a3 | x3) S(b3 | c3)`,
	}))

	const query = "R(x | y), S(y | z)"
	solveHosted := func() SolveResponse {
		t.Helper()
		return decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: query}))
	}

	// Cold solve: everything recomputed, nothing reused.
	first := solveHosted()
	if first.Verdict.Outcome != solver.OutcomeNotCertain {
		t.Fatalf("first verdict = %v, want not-certain", first.Verdict.Outcome)
	}
	if first.Delta {
		t.Error("cold solve claimed delta reuse")
	}
	if st := decodeStatsz(t, s); st.ShardMemo.Len != 3 {
		t.Fatalf("shard memo holds %d entries after cold solve, want 3", st.ShardMemo.Len)
	}

	// Mutate one block of group 1. The verdict cache misses (new relation
	// version), the memo keeps groups 2 and 3.
	decodeMutate(t, doJSON(t, s, nil, "POST", "/v1/db/facts",
		DBMutateRequest{Facts: "S(b1 | c9)"}))

	second := solveHosted()
	if second.Verdict.Outcome != solver.OutcomeNotCertain {
		t.Fatalf("second verdict = %v, want not-certain", second.Verdict.Outcome)
	}
	if second.Cached {
		t.Fatal("second solve served from the verdict cache; the mutation did not change the relation version?")
	}
	if !second.Delta {
		t.Error("post-mutation solve did not report delta reuse")
	}

	st := decodeStatsz(t, s)
	if st.ShardMemo.Hits < 2 {
		t.Errorf("statsz shard memo hits = %d, want >= 2 (groups 2 and 3 reused)", st.ShardMemo.Hits)
	}
	reused := s.reg.Counter(metricDeltaReused).Value()
	recomputed := s.reg.Counter(metricDeltaRecomputed).Value()
	if reused != 2 || recomputed != 4 {
		t.Errorf("delta counters (reused, recomputed) = (%d, %d), want (2, 4)", reused, recomputed)
	}

	// The delta verdict must equal a stateless solve of the same facts.
	rec := doJSON(t, s, nil, "GET", "/v1/db?facts=1", nil)
	dump := decodeDBGet(t, rec)
	inline := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve",
		SolveRequest{Query: query, DB: dump.Facts}))
	if inline.Verdict.Outcome != second.Verdict.Outcome {
		t.Errorf("delta verdict %v != stateless verdict %v", second.Verdict.Outcome, inline.Verdict.Outcome)
	}
	if inline.Delta {
		t.Error("stateless solve (inline DB) reported delta; the memo must only serve hosted snapshots")
	}
}

// TestHostedDeltaDisabled: delta re-solve is a hosted-only path. A
// stateless server builds no shard memo, reports an all-zero memo block and
// never marks delta, even on a repeated solve of the same instance; a
// hosted server's memo holds solver.DefaultShardMemoSize entries.
func TestHostedDeltaDisabled(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry(), VerdictCacheSize: -1})
	if s.shardMemo != nil {
		t.Fatal("stateless server built a shard memo")
	}
	req := SolveRequest{Query: "R(x | y), S(y | z)", DB: "R(a | b) S(b | c) R(d | e) S(e | f)"}
	for i := 0; i < 2; i++ {
		if resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", req)); resp.Delta {
			t.Errorf("solve %d: delta marker set on a stateless server", i)
		}
	}
	if got := decodeStatsz(t, s); got.ShardMemo != (lru.Stats{}) {
		t.Errorf("stateless statsz shard memo = %+v, want all-zero", got.ShardMemo)
	}

	hosted, _ := newStoreServer(t, nil)
	if got := decodeStatsz(t, hosted); got.ShardMemo.Cap != solver.DefaultShardMemoSize {
		t.Errorf("hosted shard memo capacity = %d, want %d", got.ShardMemo.Cap, solver.DefaultShardMemoSize)
	}
}

// TestHostedDeltaUndoReusesShard: a write to an existing block, a write
// elsewhere, then an undo of the first write. The undo restores the first
// group's content, so its re-solve finds the group's original sub-verdict
// in the shard memo and recomputes no shard; the verdict cache, keyed on
// relation versions, misses.
func TestHostedDeltaUndoReusesShard(t *testing.T) {
	s, _ := newStoreServer(t, nil)
	mutateHosted(t, s, "POST", `R(a1 | b1) R(a1 | x1) S(b1 | c1)
		R(a2 | b2) R(a2 | x2) S(b2 | c2)
		R(a3 | b3) R(a3 | x3) S(b3 | c3)`)
	solve := func(step string) SolveResponse {
		t.Helper()
		resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y), S(y | z)"}))
		if resp.Verdict.Outcome != solver.OutcomeNotCertain {
			t.Fatalf("%s: outcome %v, want not-certain", step, resp.Verdict.Outcome)
		}
		return resp
	}
	recomputed := s.reg.Counter(metricDeltaRecomputed)

	solve("cold")
	mutateHosted(t, s, "POST", "S(b1 | c9)") // an existing block of group 1
	solve("after the first write")
	mutateHosted(t, s, "POST", "S(b2 | c9)") // group 2
	solve("after the second write")
	before := recomputed.Value()
	mutateHosted(t, s, "DELETE", "S(b1 | c9)") // undo the first write
	undo := solve("after the undo")
	if undo.Cached {
		t.Error("the undo's solve was served from the verdict cache; its relation version is new")
	}
	if !undo.Delta {
		t.Error("the undo's solve did not report delta reuse")
	}
	if got := recomputed.Value() - before; got != 0 {
		t.Errorf("the undo's solve recomputed %d shards, want 0: group 1's original sub-verdict is memoized", got)
	}
}

// TestHostedBatchUsesShardMemo: hosted batch items take the hosted solve
// path, so after a one-block write a batch reuses the kept outcomes of
// every untouched component and agrees with a fresh solve of the snapshot.
func TestHostedBatchUsesShardMemo(t *testing.T) {
	s, st := newStoreServer(t, nil)
	const components = 4
	var facts strings.Builder
	for i := 1; i <= components; i++ {
		fmt.Fprintf(&facts, "R(a%d | b%d) R(a%d | x%d) S(b%d | c%d)\n", i, i, i, i, i, i)
	}
	mutateHosted(t, s, "POST", facts.String())
	const query = "R(x | y), S(y | z)"
	decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: query}))
	mutateHosted(t, s, "POST", "S(b1 | c9)")

	hitsBefore := decodeStatsz(t, s).ShardMemo.Hits
	queries := []string{query, "R(x | y)", "R(x | y), S(y | z), U(u | v)"}
	req := BatchSolveRequest{}
	for _, q := range queries {
		req.Items = append(req.Items, BatchSolveItem{Query: q})
	}
	batch := decodeBatch(t, doJSON(t, s, nil, "POST", "/v1/solve/batch", req))
	if hits := decodeStatsz(t, s).ShardMemo.Hits - hitsBefore; hits < components-1 {
		t.Errorf("hosted batch made %d shard memo hits, want at least %d", hits, components-1)
	}
	d, _ := st.DB()
	fresh := db.MustParse(d.String())
	for i, it := range batch.Results {
		if it.Error != nil || it.Verdict == nil {
			t.Fatalf("item %d = %+v, want a verdict", i, it)
		}
		want, err := solver.SolveCtx(context.Background(), cq.MustParseQuery(queries[i]), fresh, solver.Options{})
		if err != nil {
			t.Fatalf("fresh solve of %s: %v", queries[i], err)
		}
		if it.Verdict.Outcome != want.Outcome {
			t.Errorf("item %d (%s): batch outcome %v, fresh solve %v", i, queries[i], it.Verdict.Outcome, want.Outcome)
		}
	}
}
