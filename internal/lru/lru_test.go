package lru

import "testing"

func TestEvictionOrder(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 should be present")
	}
	// 2 is now least recently used; inserting 3 must evict it.
	if evicted := c.Put(3, "c"); !evicted {
		t.Fatal("inserting over capacity must evict")
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("2 should have been evicted")
	}
	if _, ok := c.Peek(1); !ok {
		t.Fatal("1 should have survived (recently used)")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestUpdateDoesNotEvict(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 10)
	c.Put(2, 20)
	if evicted := c.Put(1, 11); evicted {
		t.Fatal("updating an existing key must not evict")
	}
	if v, _ := c.Get(1); v != 11 {
		t.Fatalf("Get(1) = %d, want 11", v)
	}
}

func TestStats(t *testing.T) {
	c := New[int, int](1)
	c.Get(1)    // miss
	c.Put(1, 1) // fill
	c.Get(1)    // hit
	c.Put(2, 2) // evict 1
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Evictions != 1 || s.Len != 1 || s.Cap != 1 {
		t.Fatalf("unexpected stats %+v", s)
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[int, int](0)
	if c.Cap() != 1 {
		t.Fatalf("Cap = %d, want floor of 1", c.Cap())
	}
	c.Put(1, 1)
	if _, ok := c.Get(1); !ok {
		t.Fatal("a capacity-1 cache must still hold one entry")
	}
}
