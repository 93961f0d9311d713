package solver

import (
	"sync"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/lru"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/shard"
)

// DefaultShardMemoSize bounds the shard memo when the caller passes no
// explicit size. Entries are a fingerprint and an outcome, so even the
// default is a few hundred kilobytes, not a cache of verdict payloads.
const DefaultShardMemoSize = 4096

// ShardMemo is the bounded per-shard verdict memo behind delta re-solve: it
// maps a shard fingerprint (shard.Decomposition.ShardFingerprint — canonical
// component query ⊕ sorted per-block content digests) to the shard's
// conclusive outcome. Because the key addresses the shard's exact content,
// a stored outcome can never be served for a different sub-instance: a
// mutation changes the touched blocks' digests, so the touched shards'
// fingerprints miss and recompute while every untouched shard hits.
//
// Only conclusive outcomes (OutcomeCertain, OutcomeNotCertain) are stored.
// OutcomeUnknown depends on the request's budget and deadline, so replaying
// it could make a later, better-resourced solve less conclusive; Put
// silently drops it.
//
// Nothing invalidates an entry: a mutation changes the fingerprints of the
// shards it touches, so their old entries are simply not looked up until
// the same content returns — an undone write hits them again — and the LRU
// bound ages them out otherwise.
//
// The memo also keeps the last shard.Partition of each plan key, which
// sharded solves sync instead of partitioning anew, and which keeps the
// outcome of every co-occurrence component they decided: a re-solve looks
// up and solves only the components without one. Outcomes answered from a
// kept partition count as memo hits, in Stats and the cache metrics alike.
// The partitions' total component count stays within the memo's capacity:
// the least recently synced partition is evicted first, and a partition
// larger than the capacity is not kept. Len and the entry gauges count
// verdict entries only; Partitions reports the kept partitions.
//
// Safe for concurrent use.
type ShardMemo struct {
	mu sync.Mutex
	c  *lru.Cache[string, Outcome]
	m  *obs.CacheMetrics

	parts     map[string]*keptPartition // plan key → its last partition
	partComps int                       // components across parts
	syncs     uint64                    // sync clock, for least-recently-synced eviction
	keptHits  uint64                    // outcomes answered from kept partitions
}

// keptPartition is one plan's partition with its component count and the
// clock reading of its last sync.
type keptPartition struct {
	pt     *shard.Partition
	comps  int
	synced uint64
}

// NewShardMemo returns a memo holding at most size entries (size <= 0
// selects DefaultShardMemoSize). Metrics m may be nil (uninstrumented).
func NewShardMemo(size int, m *obs.CacheMetrics) *ShardMemo {
	if size <= 0 {
		size = DefaultShardMemoSize
	}
	sm := &ShardMemo{
		c:     lru.New[string, Outcome](size),
		m:     m,
		parts: make(map[string]*keptPartition),
	}
	m.SetSize(0, sm.c.Cap())
	return sm
}

// Get returns the memoized conclusive outcome for fingerprint fp.
func (sm *ShardMemo) Get(fp string) (Outcome, bool) {
	sm.mu.Lock()
	o, ok := sm.c.Get(fp)
	sm.mu.Unlock()
	if ok {
		sm.m.Hit()
		return o, true
	}
	sm.m.Miss()
	return OutcomeUnknown, false
}

// Contains reports whether fp is memoized, without touching recency or
// counters. Test and introspection surface.
func (sm *ShardMemo) Contains(fp string) bool {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	_, ok := sm.c.Peek(fp)
	return ok
}

// Put memoizes a conclusive shard outcome under fingerprint fp.
// OutcomeUnknown is dropped (budget-dependent, see the type comment).
func (sm *ShardMemo) Put(fp string, o Outcome) {
	if o != OutcomeCertain && o != OutcomeNotCertain {
		return
	}
	sm.mu.Lock()
	if sm.c.Put(fp, o) {
		sm.m.Evicted(1)
	}
	sm.m.SetSize(sm.c.Len(), sm.c.Cap())
	sm.mu.Unlock()
}

// Len returns the number of memoized shard verdicts.
func (sm *ShardMemo) Len() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.c.Len()
}

// Stats snapshots the underlying cache counters (hits, misses, capacity
// evictions). Hits include the outcomes answered from kept partitions.
func (sm *ShardMemo) Stats() lru.Stats {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	st := sm.c.Stats()
	st.Hits += sm.keptHits
	return st
}

// reuse counts n shard outcomes answered from a kept partition as hits.
func (sm *ShardMemo) reuse(n int) {
	if n <= 0 {
		return
	}
	sm.mu.Lock()
	sm.keptHits += uint64(n)
	sm.mu.Unlock()
	sm.m.AddHits(n)
}

// PartitionStats is the census of the partitions a ShardMemo keeps: how
// many, the co-occurrence components they hold, and how many of those
// have no kept outcome.
type PartitionStats struct {
	Partitions int `json:"partitions"`
	Components int `json:"components"`
	Undecided  int `json:"undecided"`
}

// Partitions reports the census of the kept partitions.
func (sm *ShardMemo) Partitions() PartitionStats {
	sm.mu.Lock()
	pts := make([]*shard.Partition, 0, len(sm.parts))
	for _, kp := range sm.parts {
		pts = append(pts, kp.pt)
	}
	sm.mu.Unlock()
	st := PartitionStats{Partitions: len(pts)}
	for _, pt := range pts {
		comps, undecided := pt.Census()
		st.Components += comps
		st.Undecided += undecided
	}
	return st
}

// decompose returns the finest decomposition of d for the plan with key
// key and exec query q, listing only the shards without a kept outcome: it
// syncs the partition kept for key (created on first use) under the
// partition's own lock, then accounts the partition against the memo's
// capacity. Partitions are keyed by canonical query, so one serves every
// query with that key.
func (sm *ShardMemo) decompose(key string, q cq.Query, d *db.DB) (*shard.Decomposition, shard.SyncStats) {
	sm.mu.Lock()
	kp := sm.parts[key]
	if kp == nil {
		kp = &keptPartition{pt: shard.NewPartition(q)}
		sm.parts[key] = kp
	}
	sm.mu.Unlock()

	dec, st := kp.pt.SyncOpen(d)

	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.parts[key] != kp {
		return dec, st // evicted while syncing
	}
	sm.partComps -= kp.comps
	if st.Components > sm.c.Cap() {
		delete(sm.parts, key)
		return dec, st
	}
	sm.partComps += st.Components
	kp.comps = st.Components
	sm.syncs++
	kp.synced = sm.syncs
	for sm.partComps > sm.c.Cap() {
		// The partition just synced is the most recent, so it is never
		// the oldest while others remain.
		oldest := key
		for k, e := range sm.parts {
			if e.synced < sm.parts[oldest].synced {
				oldest = k
			}
		}
		sm.partComps -= sm.parts[oldest].comps
		delete(sm.parts, oldest)
	}
	return dec, st
}
