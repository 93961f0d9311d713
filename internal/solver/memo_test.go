package solver

import (
	"testing"

	"github.com/cqa-go/certainty/internal/obs"
)

func TestShardMemoDropsUnknown(t *testing.T) {
	m := NewShardMemo(4, nil)
	m.Put("fp", OutcomeUnknown)
	if m.Len() != 0 {
		t.Fatalf("Unknown was memoized; Len = %d", m.Len())
	}
	if o, ok := m.Get("fp"); ok {
		t.Fatalf("Get returned %v for a dropped outcome", o)
	}
	m.Put("fp", OutcomeCertain)
	if o, ok := m.Get("fp"); !ok || o != OutcomeCertain {
		t.Fatalf("Get = (%v, %v), want (certain, true)", o, ok)
	}
}

// TestShardMemoEvictionUnindexes: the LRU bound is the only way an entry
// leaves the memo, so an eviction must drop the entry entirely — gone from
// the cache's index and a miss on lookup — and count as a capacity
// eviction.
func TestShardMemoEvictionUnindexes(t *testing.T) {
	m := NewShardMemo(2, nil)
	m.Put("fp1", OutcomeCertain)
	m.Put("fp2", OutcomeNotCertain)
	m.Put("fp3", OutcomeCertain) // evicts fp1 (LRU)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if m.Contains("fp1") {
		t.Fatal("fp1 survived past capacity")
	}
	if o, ok := m.Get("fp1"); ok {
		t.Fatalf("Get(fp1) = %v after its eviction", o)
	}
	if o, ok := m.Get("fp2"); !ok || o != OutcomeNotCertain {
		t.Fatalf("Get(fp2) = (%v, %v), want (not-certain, true)", o, ok)
	}
	if st := m.Stats(); st.Evictions != 1 {
		t.Fatalf("Stats.Evictions = %d, want 1", st.Evictions)
	}
}

func TestShardMemoMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cm := obs.NewCacheMetrics(reg, "shard_memo")
	m := NewShardMemo(2, cm)
	m.Put("fp1", OutcomeCertain)
	if _, ok := m.Get("fp1"); !ok {
		t.Fatal("expected hit")
	}
	if _, ok := m.Get("nope"); ok {
		t.Fatal("expected miss")
	}
	m.Put("fp2", OutcomeCertain)
	m.Put("fp3", OutcomeCertain)
	if h, ms, ev := cm.Hits(), cm.Misses(), cm.Evictions(); h != 1 || ms != 1 || ev != 1 {
		t.Fatalf("metrics (hits, misses, evictions) = (%d, %d, %d), want (1, 1, 1)", h, ms, ev)
	}
	if l, c := cm.Len(), cm.Cap(); l != 2 || c != 2 {
		t.Fatalf("metrics (len, cap) = (%d, %d), want (2, 2)", l, c)
	}
	// Contains must not disturb the counters (it is the introspection
	// surface the metamorphic tests lean on).
	m.Contains("fp2")
	m.Contains("nope")
	if h, ms := cm.Hits(), cm.Misses(); h != 1 || ms != 1 {
		t.Fatalf("Contains moved counters: (hits, misses) = (%d, %d)", h, ms)
	}
}

func TestShardMemoDefaultSize(t *testing.T) {
	m := NewShardMemo(0, nil)
	if got := m.Stats().Cap; got != DefaultShardMemoSize {
		t.Fatalf("default cap = %d, want %d", got, DefaultShardMemoSize)
	}
}
