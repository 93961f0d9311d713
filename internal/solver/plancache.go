package solver

import (
	"context"
	"sync"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/lru"
	"github.com/cqa-go/certainty/internal/obs"
)

// DefaultPlanCacheSize bounds a plan cache built with a size <= 0.
const DefaultPlanCacheSize = 1024

type planCacheEntry struct {
	p   *Plan
	err error
}

// planCall is an in-flight compilation; waiters block on wg and read p/err
// afterwards.
type planCall struct {
	wg sync.WaitGroup
	planCacheEntry
}

// PlanCache is the per-query cache of the serving stack: a bounded LRU of
// compiled plans keyed by the query's canonical form, with singleflight
// deduplication so concurrent requests for the same query never duplicate
// classification and compilation work. Plans are compiled for the
// canonical form, so queries equal up to variable renaming and atom
// reordering share one plan, and the plan's classification (and the
// Result/Verdict values it produces) describes the canonical query whichever
// isomorphic copy arrived first. Compilation errors are cached like plans:
// an unclassifiable query costs the analysis once. Safe for concurrent use.
type PlanCache struct {
	mu       sync.Mutex
	c        *lru.Cache[string, planCacheEntry]
	inflight map[string]*planCall
	m        *obs.CacheMetrics
}

// NewPlanCache returns an empty plan cache holding at most size plans
// (size <= 0 selects DefaultPlanCacheSize). Metrics m may be nil
// (uninstrumented).
func NewPlanCache(size int, m *obs.CacheMetrics) *PlanCache {
	if size <= 0 {
		size = DefaultPlanCacheSize
	}
	c := &PlanCache{
		c:        lru.New[string, planCacheEntry](size),
		inflight: make(map[string]*planCall),
		m:        m,
	}
	m.SetSize(0, c.c.Cap())
	return c
}

// Get returns the compiled plan for q's canonical form, compiling it at
// most once per canonical key even under concurrent misses: the first
// caller compiles while the rest wait for its result (and count as misses).
// A traced context records a plan/compile span around the compilation.
func (c *PlanCache) Get(ctx context.Context, q cq.Query) (*Plan, error) {
	canon, _ := cq.Canonicalize(q)
	key := canon.String()
	c.mu.Lock()
	if e, ok := c.c.Get(key); ok {
		c.mu.Unlock()
		c.m.Hit()
		return e.p, e.err
	}
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.m.Miss()
		cl.wg.Wait()
		return cl.p, cl.err
	}
	cl := &planCall{}
	cl.wg.Add(1)
	c.inflight[key] = cl
	c.mu.Unlock()
	c.m.Miss()

	_, sp := obs.StartSpan(ctx, "plan/compile")
	cl.p, cl.err = CompilePlan(canon)
	sp.End()

	c.mu.Lock()
	delete(c.inflight, key)
	if c.c.Put(key, cl.planCacheEntry) {
		c.m.Evicted(1)
	}
	c.m.SetSize(c.c.Len(), c.c.Cap())
	c.mu.Unlock()
	cl.wg.Done()
	return cl.p, cl.err
}

// Stats returns the cache's occupancy and hit/miss/eviction counters.
func (c *PlanCache) Stats() lru.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Stats()
}
