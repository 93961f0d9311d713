package server

import (
	"testing"

	"github.com/cqa-go/certainty/internal/lru"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/solver"
)

// TestHostedDeltaResolve drives the delta re-solve loop over HTTP: a hosted
// solve populates the shard memo, a one-block mutation invalidates only the
// covering entries, and the next solve reuses the untouched shards' memoized
// sub-verdicts — reported by the response's delta marker, the statsz memo
// counters, and the certd_delta_* metrics. Verdicts must match what a
// stateless solve of the same snapshot computes.
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

	// Mutate one block of group 1. The verdict cache misses (new content
	// digest), the memo keeps groups 2 and 3.
	decodeMutate(t, doJSON(t, s, nil, "POST", "/v1/db/facts",
		DBMutateRequest{Facts: "S(b1 | c9)"}))

	second := solveHosted()
	if second.Verdict.Outcome != solver.OutcomeNotCertain {
		t.Fatalf("second verdict = %v, want not-certain", second.Verdict.Outcome)
	}
	if second.Cached {
		t.Fatal("second solve served from the verdict cache; the mutation did not change the digest?")
	}
	if !second.Delta {
		t.Error("post-mutation solve did not report delta reuse")
	}

	st := decodeStatsz(t, s)
	if st.ShardMemoInvalidations != 1 {
		t.Errorf("statsz invalidations = %d, want 1 (one covering entry)", st.ShardMemoInvalidations)
	}
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
	if got := decodeStatsz(t, s); got.ShardMemo != (lru.Stats{}) || got.ShardMemoInvalidations != 0 {
		t.Errorf("stateless statsz shard memo = %+v (%d invalidations), want all-zero",
			got.ShardMemo, got.ShardMemoInvalidations)
	}

	hosted, _ := newStoreServer(t, nil)
	if got := decodeStatsz(t, hosted); got.ShardMemo.Cap != solver.DefaultShardMemoSize {
		t.Errorf("hosted shard memo capacity = %d, want %d", got.ShardMemo.Cap, solver.DefaultShardMemoSize)
	}
}
