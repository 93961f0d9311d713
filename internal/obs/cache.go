package obs

// CacheMetrics is the registry-backed view of one memoization layer's
// counters — the migration target for the bespoke lru.Stats plumbing. Each
// cache (compiled plans, verdicts, shard memo) gets one instance, labeled
// cache="<name>", and reports hits, misses, and evictions as they happen
// plus occupancy as a gauge. A nil *CacheMetrics is valid and
// inert, so cache wrappers can stay uninstrumented in tests.
type CacheMetrics struct {
	hits, misses, evictions *Counter
	len, capacity           *Gauge
}

// Metric names shared by every instrumented cache.
const (
	cacheHitsName      = "cache_hits_total"
	cacheMissesName    = "cache_misses_total"
	cacheEvictionsName = "cache_evictions_total"
	cacheLenName       = "cache_entries"
	cacheCapName       = "cache_capacity"
)

// NewCacheMetrics registers the counters and gauges for the named cache.
func NewCacheMetrics(r *Registry, name string) *CacheMetrics {
	r.Help(cacheHitsName, "Cache lookups served from the cache.")
	r.Help(cacheMissesName, "Cache lookups that had to compute.")
	r.Help(cacheEvictionsName, "Entries evicted to stay within capacity.")
	r.Help(cacheLenName, "Entries currently held.")
	r.Help(cacheCapName, "Configured capacity.")
	l := L{"cache", name}
	return &CacheMetrics{
		hits:      r.Counter(cacheHitsName, l),
		misses:    r.Counter(cacheMissesName, l),
		evictions: r.Counter(cacheEvictionsName, l),
		len:       r.Gauge(cacheLenName, l),
		capacity:  r.Gauge(cacheCapName, l),
	}
}

// Hit records a cache hit. No-op on nil.
func (m *CacheMetrics) Hit() {
	if m != nil {
		m.hits.Inc()
	}
}

// AddHits records n cache hits at once. No-op on nil.
func (m *CacheMetrics) AddHits(n int) {
	if m != nil && n > 0 {
		m.hits.Add(uint64(n))
	}
}

// Miss records a cache miss. No-op on nil.
func (m *CacheMetrics) Miss() {
	if m != nil {
		m.misses.Inc()
	}
}

// Evicted records n evictions. No-op on nil.
func (m *CacheMetrics) Evicted(n int) {
	if m != nil && n > 0 {
		m.evictions.Add(uint64(n))
	}
}

// SetSize records current occupancy and capacity. No-op on nil.
func (m *CacheMetrics) SetSize(length, capacity int) {
	if m != nil {
		m.len.Set(int64(length))
		m.capacity.Set(int64(capacity))
	}
}

// Hits returns the hit count (0 on nil).
func (m *CacheMetrics) Hits() uint64 {
	if m == nil {
		return 0
	}
	return m.hits.Value()
}

// Misses returns the miss count (0 on nil).
func (m *CacheMetrics) Misses() uint64 {
	if m == nil {
		return 0
	}
	return m.misses.Value()
}

// Evictions returns the eviction count (0 on nil).
func (m *CacheMetrics) Evictions() uint64 {
	if m == nil {
		return 0
	}
	return m.evictions.Value()
}

// Len returns the last occupancy recorded with SetSize (0 on nil).
func (m *CacheMetrics) Len() int {
	if m == nil {
		return 0
	}
	return int(m.len.Value())
}

// Cap returns the last capacity recorded with SetSize (0 on nil).
func (m *CacheMetrics) Cap() int {
	if m == nil {
		return 0
	}
	return int(m.capacity.Value())
}
