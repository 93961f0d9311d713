// Package lru implements a small, allocation-light, generics-based LRU map
// used to bound every memoization layer in the serving stack: the
// classification cache (internal/core), the compiled plan cache
// (internal/plan), and the verdict cache (internal/server). Bounding these
// caches is a robustness requirement, not just a memory optimization: an
// adversarial stream of distinct queries must not grow server memory
// without limit.
//
// The zero Cache is not ready; call New. Cache is NOT safe for concurrent
// use — callers wrap it in their own lock so they can combine the lookup
// with their own bookkeeping (singleflight, counters) under one critical
// section.
package lru

import "container/list"

// Cache is a bounded map with least-recently-used eviction.
type Cache[K comparable, V any] struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element

	hits, misses, evictions uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries. Capacities
// below 1 are raised to 1 (a cache that can hold nothing would turn every
// Get into a miss and every Put into an immediate eviction, which no caller
// wants silently).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek returns the value for key without touching recency or counters.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or updates key, marking it most recently used, and evicts the
// least recently used entry if the cache is over capacity. It reports
// whether an eviction happened.
func (c *Cache[K, V]) Put(key K, val V) (evicted bool) {
	_, _, evicted = c.PutEvicted(key, val)
	return evicted
}

// PutEvicted is Put for callers that maintain a secondary index over the
// cache's entries (the shard memo's block → fingerprint map): on eviction it
// returns the evicted key and value so the caller can unindex them in the
// same critical section, keeping the index exactly as bounded as the cache.
func (c *Cache[K, V]) PutEvicted(key K, val V) (K, V, bool) {
	var zeroK K
	var zeroV V
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[K, V]).val = val
		return zeroK, zeroV, false
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	if c.ll.Len() <= c.cap {
		return zeroK, zeroV, false
	}
	oldest := c.ll.Back()
	c.ll.Remove(oldest)
	e := oldest.Value.(*entry[K, V])
	delete(c.items, e.key)
	c.evictions++
	return e.key, e.val, true
}

// Delete removes key, reporting whether it was present.
func (c *Cache[K, V]) Delete(key K) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	return true
}

// Len returns the number of entries currently held.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Cap returns the configured capacity.
func (c *Cache[K, V]) Cap() int { return c.cap }

// Stats is a snapshot of the cache's counters, serializable as the
// /v1/statsz wire form.
type Stats struct {
	Len       int    `json:"len"`
	Cap       int    `json:"cap"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats returns a snapshot of size and counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{Len: c.ll.Len(), Cap: c.cap, Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
