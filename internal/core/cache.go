package core

import (
	"sync"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/lru"
)

// DefaultCacheSize bounds a classification cache built with NewCache. The
// canonical-form working set of real workloads is small (queries repeat up
// to renaming); the bound exists so an adversarial stream of never-repeating
// queries cannot grow the cache without limit.
const DefaultCacheSize = 4096

// Cache memoizes classifications by the canonical form of the query, so
// that repeated classifications of renamed/reordered copies of the same
// query pay for the attack-graph analysis once. It backs the facade's
// ClassificationCache; the serving stack caches compiled plans instead
// (solver.PlanCache), which carry the same classification. The cache is a
// capped LRU: least recently used classifications are evicted once the
// bound is reached. Safe for concurrent use.
type Cache struct {
	mu sync.Mutex
	c  *lru.Cache[string, cacheEntry]
}

type cacheEntry struct {
	cls Classification
	err error
}

// NewCache returns an empty classification cache bounded at
// DefaultCacheSize entries.
func NewCache() *Cache {
	return NewCacheSize(DefaultCacheSize)
}

// NewCacheSize returns an empty classification cache holding at most size
// entries (floored at one).
func NewCacheSize(size int) *Cache {
	return &Cache{c: lru.New[string, cacheEntry](size)}
}

// Classify is Classify with memoization. The classification is computed on
// the caller's query (so atom indexes in the result match the input), but
// the hit/miss decision uses the canonical key: a cache hit recomputes
// nothing for structurally identical queries with different names only if
// the query is byte-identical after canonicalization; otherwise the cached
// outcome class is reused and the graph recomputed lazily on demand.
//
// For simplicity and correctness, entries store the full classification of
// the *canonical* query; callers needing atom-level detail for their
// original naming should use the Graph of a direct Classify call.
func (c *Cache) Classify(q cq.Query) (Classification, error) {
	key := cq.CanonicalKey(q)
	c.mu.Lock()
	e, ok := c.c.Get(key)
	c.mu.Unlock()
	if ok {
		return e.cls, e.err
	}
	canon, _ := cq.Canonicalize(q)
	cls, err := Classify(canon)
	c.mu.Lock()
	c.c.Put(key, cacheEntry{cls: cls, err: err})
	c.mu.Unlock()
	return cls, err
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Len()
}

// Stats returns the cache's occupancy and hit/miss/eviction counters.
func (c *Cache) Stats() lru.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Stats()
}
