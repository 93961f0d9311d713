// Package fleet is certd's coordinator mode: one process that routes
// solve/batch/classify traffic across N worker backends and stays correct
// and available when workers are slow, dead, stale, or lying.
//
// The safety argument is the paper's determinism: a CERTAINTY(q) verdict is
// a pure function of (canonical query, database content), so any replica
// holding a snapshot with the same content returns the byte-identical
// verdict. That makes the coordinator's three availability mechanisms
// *provably* answer-preserving:
//
//   - Shard-aware routing: requests route by shard.PlacementKey (the
//     relation-set face of the PR 5 union-find decomposition) under
//     rendezvous hashing, so every query over one relation set lands on
//     the same worker — its plan cache stays hot, and for hosted
//     requests its verdict cache and shard memo too, and replication only
//     needs to ship each worker the relations its keys read. Any other
//     worker is merely colder, never wrong.
//   - Hedged requests: when the primary is slow, a second replica is fired
//     after a delay derived from the observed p95 (obs histogram); the
//     first conclusive verdict wins and the loser is cancelled. Both
//     replicas would return the same bytes, so hedging trades duplicate
//     work for tail latency, never answers.
//   - Replica failover: dead, shedding, or fenced backends are skipped in
//     placement order. Version fencing (SolveRequest.IfDBVersion, enforced
//     server-side and re-checked here against the response's DBVersion)
//     guarantees a lagging or lying replica can never serve a verdict for
//     a snapshot the client did not ask for.
//
// When every replica is exhausted the coordinator returns a typed
// unavailable error (server.CodeUnavailable) — the robustness contract is
// "byte-identical or unavailable", never a wrong or torn answer, and
// internal/fleet/chaos proves it under scripted fault schedules.
package fleet

import (
	"context"
	"hash/fnv"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cqa-go/certainty/internal/client"
	"github.com/cqa-go/certainty/internal/obs"
)

// Metric names exposed on the coordinator's /metrics.
const (
	// metricHedges counts hedged (second-replica) solve attempts by how
	// they ended: the hedge won the race, lost it after completing, or was
	// cancelled in flight when the primary answered first.
	metricHedges = "certd_client_hedges_total"
	// metricFailovers counts replica switches by the reason the previous
	// replica was abandoned (transport, shed, shutdown, internal,
	// read-only, version_fenced, item, stall).
	metricFailovers = "certd_fleet_failovers_total"
	// metricRequests counts routed requests by path and final outcome.
	metricRequests = "certd_fleet_requests_total"
	// metricSeconds is the end-to-end routed-solve latency histogram; its
	// p95 drives the hedging delay.
	metricSeconds = "certd_fleet_request_seconds"
	// metricBackendHealthy is 1 while a backend passes health probes.
	metricBackendHealthy = "certd_fleet_backend_healthy"
)

// Hedge outcome label values.
const (
	hedgeWon       = "won"
	hedgeLost      = "lost"
	hedgeCancelled = "cancelled"
)

// Config tunes a Coordinator. Zero fields get production defaults from New.
type Config struct {
	// Backends are the worker base URLs (required, at least one).
	Backends []string
	// HTTPClient is shared by every backend client and health probe.
	// Defaults to http.DefaultClient; the chaos harness injects a
	// fault-wrapped transport here.
	HTTPClient *http.Client
	// HedgeQuantile is the latency quantile the hedging delay tracks
	// (default 0.95): a hedge fires when the primary has been out longer
	// than this fraction of recent requests took end to end.
	HedgeQuantile float64
	// HedgeMinDelay floors the hedging delay and stands in for it while
	// the latency histogram is empty (default 5ms). HedgeMaxDelay caps it
	// (default 2s).
	HedgeMinDelay time.Duration
	HedgeMaxDelay time.Duration
	// HedgeDisabled turns hedging off; failover still applies.
	HedgeDisabled bool
	// ProbeInterval is the period of the /readyz health sweep started by
	// Start (default 1s).
	ProbeInterval time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB), MaxBatchItems the
	// items per batch (default 256) — the same limits a worker applies, so
	// oversized requests die at the coordinator instead of fanning out.
	MaxBodyBytes  int64
	MaxBatchItems int
	// GroupSplit is the batch-item count above which one placement group
	// is split across replicas instead of riding one worker (default 8).
	// Splitting trades cache locality for parallelism; it never changes
	// verdicts.
	GroupSplit int
	// BatchStallTimeout abandons a batch hop whose stream has made no
	// progress (no item yielded) for this long and fails the chunk over
	// (default 30s). Hedging covers slow or partitioned workers on the
	// solve path; this watchdog is the batch path's equivalent — without
	// it a partitioned worker would hang a chunk forever. Progress resets
	// the clock, so a legitimately slow-but-streaming worker is never cut.
	BatchStallTimeout time.Duration
	// Registry receives the coordinator's metrics (default obs.Default).
	Registry *obs.Registry
	// Logger, when non-nil, receives one line per routing event.
	Logger *log.Logger
}

// Backend is one worker as the coordinator sees it.
type Backend struct {
	url    string
	client *client.Client

	healthy atomic.Bool
	status  atomic.Value // string: "ok", "draining", "read-only", "transport", "probe"
	version atomic.Uint64
	hasVer  atomic.Bool

	gHealthy *obs.Gauge
}

// URL returns the backend's base URL.
func (b *Backend) URL() string { return b.url }

// Healthy reports the current health verdict (probe- or traffic-derived).
func (b *Backend) Healthy() bool { return b.healthy.Load() }

func (b *Backend) setHealth(ok bool, status string) {
	b.healthy.Store(ok)
	b.status.Store(status)
	if ok {
		b.gHealthy.Set(1)
	} else {
		b.gHealthy.Set(0)
	}
}

// noteVersion records the hosted-database version observed in a response.
func (b *Backend) noteVersion(v uint64) {
	b.version.Store(v)
	b.hasVer.Store(true)
}

// Coordinator routes requests across the fleet. Create with New, expose
// via Handler, start probing with Start, stop with Close.
type Coordinator struct {
	cfg      Config
	backends []*Backend
	reg      *obs.Registry
	latency  *obs.Histogram

	mHedgeWon       *obs.Counter
	mHedgeLost      *obs.Counter
	mHedgeCancelled *obs.Counter

	mux      *http.ServeMux
	draining atomic.Bool

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a Coordinator over cfg.Backends, applying defaults for unset
// fields. Backends start healthy — the first probe or request corrects
// optimism within one round trip, while pessimism would refuse traffic a
// fresh fleet could serve.
func New(cfg Config) *Coordinator {
	if len(cfg.Backends) == 0 {
		panic("fleet: no backends configured")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.HedgeQuantile <= 0 || cfg.HedgeQuantile >= 1 {
		cfg.HedgeQuantile = 0.95
	}
	if cfg.HedgeMinDelay <= 0 {
		cfg.HedgeMinDelay = 5 * time.Millisecond
	}
	if cfg.HedgeMaxDelay <= 0 {
		cfg.HedgeMaxDelay = 2 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 256
	}
	if cfg.GroupSplit <= 0 {
		cfg.GroupSplit = 8
	}
	if cfg.BatchStallTimeout <= 0 {
		cfg.BatchStallTimeout = 30 * time.Second
	}
	c := &Coordinator{cfg: cfg, stop: make(chan struct{})}
	c.reg = cfg.Registry
	if c.reg == nil {
		c.reg = obs.Default
	}
	c.reg.Help(metricHedges, "Hedged (second-replica) solve attempts, by outcome (won/lost/cancelled).")
	c.reg.Help(metricFailovers, "Replica failovers, by the reason the previous replica was abandoned.")
	c.reg.Help(metricRequests, "Requests routed by the coordinator, by path and final outcome.")
	c.reg.Help(metricSeconds, "End-to-end routed-solve latency in seconds; its p95 drives the hedging delay.")
	c.reg.Help(metricBackendHealthy, "1 while the backend passes health probes, by backend URL.")
	c.latency = c.reg.Histogram(metricSeconds, nil)
	c.mHedgeWon = c.reg.Counter(metricHedges, obs.L{K: "outcome", V: hedgeWon})
	c.mHedgeLost = c.reg.Counter(metricHedges, obs.L{K: "outcome", V: hedgeLost})
	c.mHedgeCancelled = c.reg.Counter(metricHedges, obs.L{K: "outcome", V: hedgeCancelled})
	for _, u := range cfg.Backends {
		b := &Backend{
			url: u,
			client: &client.Client{
				BaseURL:    u,
				HTTPClient: cfg.HTTPClient,
				// The coordinator owns retry policy: one attempt per
				// backend, failover and hedging do the rest. Per-backend
				// backoff retries would fight the hedging race.
				MaxRetries:  0,
				NoItemRetry: true,
				Registry:    c.reg,
			},
			gHealthy: c.reg.Gauge(metricBackendHealthy, obs.L{K: "backend", V: u}),
		}
		b.setHealth(true, "unprobed")
		c.backends = append(c.backends, b)
	}
	c.buildMux()
	return c
}

// Backends returns the fleet members in configuration order.
func (c *Coordinator) Backends() []*Backend { return c.backends }

// logf logs when a logger is configured.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Printf(format, args...)
	}
}

// failovers resolves the failover counter for one abandon reason.
func (c *Coordinator) failovers(reason string) *obs.Counter {
	return c.reg.Counter(metricFailovers, obs.L{K: "reason", V: reason})
}

// requests resolves the routed-request counter for one path and outcome.
func (c *Coordinator) requests(path, outcome string) *obs.Counter {
	return c.reg.Counter(metricRequests, obs.L{K: "path", V: path}, obs.L{K: "outcome", V: outcome})
}

// placement orders the fleet for one placement key: rendezvous (highest-
// random-weight) hashing of key⊕backend, healthy backends first. Every
// coordinator computes the same order for the same key with no shared
// state, the order is stable while the fleet is stable, and removing a
// backend only moves the keys that backend owned — the properties that
// make the relation-set digest a placement function rather than a load
// balancer's coin flip. Unhealthy backends stay in the order, at the tail:
// they are the last resort when every healthy replica has failed, and a
// success there flips them healthy again (traffic is the fastest probe).
func (c *Coordinator) placement(key string) []*Backend {
	type scored struct {
		b       *Backend
		healthy bool
		score   uint64
	}
	order := make([]scored, len(c.backends))
	for i, b := range c.backends {
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte{0})
		h.Write([]byte(b.url))
		order[i] = scored{b: b, healthy: b.healthy.Load(), score: h.Sum64()}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].healthy != order[j].healthy {
			return order[i].healthy
		}
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return order[i].b.url < order[j].b.url
	})
	out := make([]*Backend, len(order))
	for i, s := range order {
		out[i] = s.b
	}
	return out
}

// healthyCount returns how many backends currently pass health checks.
func (c *Coordinator) healthyCount() int {
	n := 0
	for _, b := range c.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// hedgeDelay derives the current hedging delay: the configured quantile of
// the observed end-to-end latency, clamped to [HedgeMinDelay,
// HedgeMaxDelay]. An empty histogram (fresh coordinator) falls back to the
// floor — hedging early on a cold fleet costs one duplicate solve, while
// not hedging costs the client the whole tail.
func (c *Coordinator) hedgeDelay() time.Duration {
	d, ok := c.latency.QuantileDuration(c.cfg.HedgeQuantile)
	if !ok || d < c.cfg.HedgeMinDelay {
		d = c.cfg.HedgeMinDelay
	}
	if d > c.cfg.HedgeMaxDelay {
		d = c.cfg.HedgeMaxDelay
	}
	return d
}

// Start launches the periodic health sweep. Safe to skip in tests — use
// ProbeNow for a synchronous round instead.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeInterval)
				c.ProbeNow(ctx)
				cancel()
			}
		}
	}()
}

// ProbeNow sweeps every backend's /readyz once, concurrently, and updates
// health state. A 200 is healthy; anything else — including a 503 from a
// draining or read-only worker — is not, so load stops routing there
// before requests have to discover it the hard way.
func (c *Coordinator) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range c.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			h, err := b.client.Ready(ctx)
			switch {
			case err == nil:
				b.setHealth(true, "ok")
				if h.ReadOnly {
					// Defensive: a 200 body flagging read-only would mean a
					// worker predating the readyz change; record it.
					b.setHealth(false, "read-only")
				}
			default:
				b.setHealth(false, "probe")
			}
		}(b)
	}
	wg.Wait()
}

// BeginDrain stops admitting new requests (503 shutdown), mirroring the
// worker server's drain semantics.
func (c *Coordinator) BeginDrain() { c.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// Close stops the health sweep. It does not touch the backends.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}
