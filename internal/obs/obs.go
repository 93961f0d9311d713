// Package obs is the observability layer of the serving stack: a
// dependency-free metrics registry (atomic counters, gauges, and bounded
// histograms with fixed bucket edges) plus a lightweight, ring-buffered,
// sampled span tracer (trace.go). Every layer of the stack — the solver's
// phase dispatch, the database structural index, the compiled-plan and
// verdict caches, the certd request path — records into this package, and
// internal/server exposes the registry in Prometheus text format on
// GET /metrics.
//
// Design constraints, in order:
//
//  1. Zero dependencies. The registry must be importable from the lowest
//     layers (internal/db, internal/govern) without cycles, so obs imports
//     nothing from this repository.
//  2. Deterministic output. Histogram bucket edges are fixed at creation
//     and exposition is sorted, so the /metrics text for a scripted request
//     sequence is byte-stable and can be locked by a golden test. Telemetry
//     that nobody tests silently rots; here it is a contract.
//  3. Cheap when off, bounded when on. Counters are single atomic adds on
//     pre-resolved handles; the tracer records nothing — and allocates
//     nothing — when no Tracer rides the context, and a bounded ring when
//     one does.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// L is one metric label (a key="value" pair in the exposition).
type L struct {
	K, V string
}

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metric type names used in the exposition and in mismatch panics.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one (labels, metric) pair within a family.
type series struct {
	labels []L
	key    string // canonical serialized labels, the sort key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every label combination of one metric name, with a single
// type and (for histograms) a single bucket layout.
type family struct {
	name    string
	help    string
	typ     string
	edges   []float64 // histogram families only
	mu      sync.Mutex
	series  map[string]*series
	ordered []*series // sorted by key, rebuilt on insert
}

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry. Safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry. Packages that have no natural
// configuration surface (internal/db, internal/govern, internal/engine)
// record here; certd exposes it on /metrics. Tests that need isolated
// counters construct their own Registry.
var Default = NewRegistry()

// Help sets the HELP text emitted for the named family. Calling it for a
// family that does not exist yet is fine: the text is applied when the
// family is created.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = text
		return
	}
	// Pre-register an empty family so the help text survives until the
	// first metric lands. Its type is fixed by that first metric.
	r.families[name] = &family{name: name, help: text, series: make(map[string]*series)}
}

// labelKey serializes labels canonically (sorted by key) so that the same
// label set always maps to the same series regardless of argument order.
func labelKey(labels []L) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]L, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].K < sorted[j].K })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteByte('=')
		b.WriteString(l.V)
		b.WriteByte(0) // values cannot fake a separator
	}
	return b.String()
}

// getFamily returns the family for name, creating it with the given type on
// first use and panicking on a type mismatch — mixing types under one name
// is a programming error that would silently corrupt the exposition.
func (r *Registry) getFamily(name, typ string, edges []float64) *family {
	// The type is read and fixed under r.mu: a family pre-registered by
	// Help is untyped until its first metric, which concurrent first uses
	// race to set. Once set it never changes, so later reads need no lock.
	r.mu.RLock()
	f, ok := r.families[name]
	typed := ok && f.typ != ""
	r.mu.RUnlock()
	if !typed {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{name: name, series: make(map[string]*series)}
			r.families[name] = f
		}
		if f.typ == "" {
			f.typ = typ
			f.edges = edges
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// getSeries returns the series for the label set, creating it on first use.
func (f *family) getSeries(labels []L) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	owned := make([]L, len(labels))
	copy(owned, labels)
	sort.Slice(owned, func(i, j int) bool { return owned[i].K < owned[j].K })
	s := &series{labels: owned, key: key}
	switch f.typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		s.h = newHistogram(f.edges)
	}
	f.series[key] = s
	f.ordered = append(f.ordered, s)
	sort.Slice(f.ordered, func(i, j int) bool { return f.ordered[i].key < f.ordered[j].key })
	return s
}

// Counter returns the counter for name and labels, creating it on first
// use. The returned handle is stable: hot paths should resolve it once and
// keep it, paying one atomic add per event afterwards.
func (r *Registry) Counter(name string, labels ...L) *Counter {
	return r.getFamily(name, typeCounter, nil).getSeries(labels).c
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...L) *Gauge {
	return r.getFamily(name, typeGauge, nil).getSeries(labels).g
}

// Histogram returns the histogram for name and labels, creating it on
// first use with the given bucket edges (nil selects DefBuckets). Every
// series of one family shares the family's edges: the edges supplied on
// the first call win, so exposition stays aligned across label sets.
func (r *Registry) Histogram(name string, edges []float64, labels ...L) *Histogram {
	if edges == nil {
		edges = DefBuckets
	}
	return r.getFamily(name, typeHistogram, edges).getSeries(labels).h
}

// snapshot returns the families sorted by name, for exposition.
func (r *Registry) snapshot() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
