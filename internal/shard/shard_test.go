package shard

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/govern"
)

// collectFacts flattens a decomposition's shards back into a fact multiset
// keyed by fact identity.
func collectFacts(t *testing.T, dec *Decomposition) map[string]int {
	t.Helper()
	seen := make(map[string]int)
	for j, shards := range dec.Blocks {
		for i := range shards {
			for _, f := range dec.Shard(j, i).Facts() {
				seen[f.ID()]++
			}
		}
	}
	return seen
}

func TestDecomposePartitionsRelevantFacts(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	d := db.MustParse(`
		R(a | b) R(a | c)
		R(a2 | b2)
		S(b | d) S(b2 | d2)
		S(lone | e)
		T(k | v) T(k | w)
	`)
	dec := Decompose(q, d)

	if len(dec.Components) != 1 {
		t.Fatalf("components = %d, want 1", len(dec.Components))
	}
	seen := collectFacts(t, dec)
	relevant := 0
	for _, f := range d.Facts() {
		if f.Rel == "T" {
			continue
		}
		relevant++
		if seen[f.ID()] != 1 {
			t.Errorf("fact %v appears %d times across shards, want exactly once", f, seen[f.ID()])
		}
	}
	if len(seen) != relevant {
		t.Errorf("shards hold %d facts, want %d", len(seen), relevant)
	}
	// The two T facts form one irrelevant block of size 2.
	if len(dec.IrrelevantBlocks) != 1 || dec.IrrelevantBlocks[0] != 2 {
		t.Errorf("IrrelevantBlocks = %v, want [2]", dec.IrrelevantBlocks)
	}
	// R(a|·)+S(b|·) chain one component; R(a2|·)+S(b2|·) another; S(lone|·) a third.
	if got := dec.NumShards(); got != 3 {
		t.Errorf("NumShards = %d, want 3", got)
	}
}

// TestDecomposeKeepsBlocksWhole: two facts of one block always land in the
// same shard — the invariant that makes the repair space of d the product of
// the shards' repair spaces.
func TestDecomposeKeepsBlocksWhole(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	d := gen.RandomDB(q, gen.Config{Embeddings: 8, Noise: 10, Domain: 4}, 42)
	dec := Decompose(q, d)
	owner := make(map[string]int)
	g := 0
	for j, shards := range dec.Blocks {
		for i := range shards {
			for _, f := range dec.Shard(j, i).Facts() {
				bid := f.BlockID()
				if prev, ok := owner[bid]; ok && prev != g {
					t.Fatalf("block %q split across shards %d and %d", bid, prev, g)
				}
				owner[bid] = g
			}
			g++
		}
	}
}

// TestDecomposeLinksJoinValues: facts that could be joined by one embedding
// (same constant at positions of a shared query variable) must share a shard.
func TestDecomposeLinksJoinValues(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	d := db.MustParse(`R(a | v) S(v | b) R(c | v2) S(v2 | d)`)
	dec := Decompose(q, d)
	if got := dec.NumShards(); got != 2 {
		t.Fatalf("NumShards = %d, want 2 (two join chains)", got)
	}
	for j, shards := range dec.Blocks {
		for i := range shards {
			s := dec.Shard(j, i)
			var hasR, hasS bool
			for _, f := range s.Facts() {
				hasR = hasR || f.Rel == "R"
				hasS = hasS || f.Rel == "S"
			}
			if !hasR || !hasS {
				t.Errorf("shard %v misses one side of the join", s.Facts())
			}
		}
	}
}

// TestDecomposeSelfJoinSingleShard: a self-joining component opts out of
// data sharding — the co-occurrence argument needs self-join-freedom.
func TestDecomposeSelfJoinSingleShard(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), R(y | z)")
	d := db.MustParse(`R(a | b) R(c | d) R(e | f)`)
	dec := Decompose(q, d)
	if len(dec.Components) != 1 {
		t.Fatalf("components = %d, want 1", len(dec.Components))
	}
	if got := len(dec.Blocks[0]); got != 1 {
		t.Errorf("self-join component has %d shards, want 1", got)
	}
	if dec.Shard(0, 0).Len() != d.Len() {
		t.Errorf("single shard holds %d facts, want %d", dec.Shard(0, 0).Len(), d.Len())
	}
}

func TestDecomposeMultiComponentQuery(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(u | v)")
	d := db.MustParse(`R(a | b) R(c | d) S(e | f)`)
	dec := Decompose(q, d)
	if len(dec.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(dec.Components))
	}
	if len(dec.Blocks[0]) != 2 || len(dec.Blocks[1]) != 1 {
		t.Errorf("shards per component = %d,%d, want 2,1", len(dec.Blocks[0]), len(dec.Blocks[1]))
	}
}

func TestForEachRunsEveryIndex(t *testing.T) {
	var hits [257]atomic.Int32
	err := ForEach(context.Background(), len(hits), func(i int) { hits[i].Add(1) })
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, hits[i].Load())
		}
	}
}

// ForEach must complete even when the worker gate has no free slots: the
// caller's goroutine works through every index inline.
func TestForEachProgressWithExhaustedGate(t *testing.T) {
	restore := govern.SetWorkerLimit(1)
	defer restore()
	gate := govern.Workers()
	if !gate.TryAcquire() {
		t.Fatal("fresh gate refused its only slot")
	}
	defer gate.Release()

	var n atomic.Int32
	if err := ForEach(context.Background(), 64, func(int) { n.Add(1) }); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if n.Load() != 64 {
		t.Fatalf("ran %d items, want 64", n.Load())
	}
}

func TestForEachStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int32
	err := ForEach(ctx, 1_000_000, func(i int) {
		if n.Add(1) == 10 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := n.Load(); got >= 1_000_000 {
		t.Fatalf("cancellation did not stop the fan-out (ran %d items)", got)
	}
}
