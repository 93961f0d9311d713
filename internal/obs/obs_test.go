package obs

import (
	"sync"
	"testing"
)

// TestCounterIdentity: the same (name, labels) resolves to the same handle
// regardless of label order, and distinct label sets get distinct handles.
func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", L{"class", "fo"}, L{"verdict", "certain"})
	b := r.Counter("requests_total", L{"verdict", "certain"}, L{"class", "fo"})
	if a != b {
		t.Fatalf("label order must not change the series identity")
	}
	c := r.Counter("requests_total", L{"class", "fo"}, L{"verdict", "unknown"})
	if a == c {
		t.Fatalf("distinct label sets must be distinct series")
	}
	a.Inc()
	a.Add(2)
	if got := b.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("sibling series contaminated: %d", got)
	}
}

// TestTypeMismatchPanics: reusing a family name with another metric type is
// a programming error that must fail loudly, not corrupt the exposition.
func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on counter-vs-gauge type mismatch")
		}
	}()
	r.Gauge("x_total")
}

// TestCounterConcurrency: counters lose no increments under concurrency
// (run with -race in the obs-race CI job).
func TestCounterConcurrency(t *testing.T) {
	r := NewRegistry()
	// Help pre-registers the counter's family untyped, as certd's server
	// does, so the first concurrent uses also race to fix its type.
	r.Help("concurrent_total", "Concurrent increments.")
	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve inside the goroutine to also race the get-or-create
			// path, not just the increments.
			c := r.Counter("concurrent_total", L{"class", "fo"})
			g := r.Gauge("concurrent_gauge")
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("concurrent_total", L{"class", "fo"}).Value(); got != goroutines*perG {
		t.Fatalf("lost increments: %d of %d", got, goroutines*perG)
	}
	if got := r.Gauge("concurrent_gauge").Value(); got != 0 {
		t.Fatalf("gauge should net to zero, got %d", got)
	}
}

// TestGauge exercises Set/Add semantics.
func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
}

// TestCacheMetrics: the migration shim counts hits/misses/evictions like
// lru.Stats does, and a nil receiver is inert.
func TestCacheMetrics(t *testing.T) {
	r := NewRegistry()
	m := NewCacheMetrics(r, "classify")
	m.Hit()
	m.Hit()
	m.Miss()
	m.Evicted(0) // no-op
	m.Evicted(2)
	m.SetSize(7, 100)
	if m.Hits() != 2 || m.Misses() != 1 || m.Evictions() != 2 {
		t.Fatalf("counts = %d/%d/%d, want 2/1/2", m.Hits(), m.Misses(), m.Evictions())
	}
	if got := r.Gauge(cacheLenName, L{"cache", "classify"}).Value(); got != 7 {
		t.Fatalf("len gauge = %d, want 7", got)
	}
	if got := r.Gauge(cacheCapName, L{"cache", "classify"}).Value(); got != 100 {
		t.Fatalf("cap gauge = %d, want 100", got)
	}

	var nilM *CacheMetrics
	nilM.Hit()
	nilM.Miss()
	nilM.Evicted(3)
	nilM.SetSize(1, 2)
	if nilM.Hits() != 0 || nilM.Misses() != 0 || nilM.Evictions() != 0 {
		t.Fatalf("nil CacheMetrics must read zero")
	}
}

// TestHelpBeforeAndAfterCreation: help text set before or after the first
// metric lands on the family either way.
func TestHelpBeforeAndAfterCreation(t *testing.T) {
	r := NewRegistry()
	r.Help("a_total", "before")
	r.Counter("a_total").Inc()
	r.Counter("b_total").Inc()
	r.Help("b_total", "after")
	fams := r.snapshot()
	byName := map[string]string{}
	for _, f := range fams {
		byName[f.name] = f.help
	}
	if byName["a_total"] != "before" || byName["b_total"] != "after" {
		t.Fatalf("help text lost: %+v", byName)
	}
}
