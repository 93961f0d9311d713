// Command certd serves CERTAINTY(q) over HTTP/JSON. It wraps the governed
// solver stack (internal/solver + internal/govern) in the resilient
// service layer of internal/server: a bounded worker pool with admission
// control and load shedding, operator-clamped per-request deadlines and
// step budgets, per-query-class circuit breakers that degrade persistent
// coNP cutoffs to bounded Monte-Carlo verdicts, and graceful drain on
// SIGINT/SIGTERM.
//
// Endpoints (see API.md for the wire contract):
//
//	POST /v1/solve        decide CERTAINTY(q) for a query + database
//	POST /v1/solve/batch  solve many items in one request (JSON or NDJSON stream)
//	POST /v1/classify     classify a query's complexity (no database)
//	GET  /v1/db           hosted database metadata (requires -data-dir)
//	POST /v1/db/facts     durably insert facts (WAL + fsync, CAS via if_version)
//	DELETE /v1/db/facts   durably delete facts
//	GET  /v1/statsz       serving-layer cache counters (JSON)
//	GET  /healthz         liveness (always 200 while the process runs)
//	GET  /readyz          readiness (503 once draining)
//	GET  /metrics         Prometheus text exposition of the whole process
//	GET  /debug/pprof     profiling endpoints (only with -pprof)
//
// With -fleet, certd runs as a COORDINATOR instead of a worker: it serves
// the same read API but routes every request across the listed worker
// processes with shard-aware placement, hedged requests, replica failover,
// and version fencing (see internal/fleet and the Fleet section of
// ARCHITECTURE.md). A coordinator holds no database and refuses /v1/db
// mutations; point writers at a worker.
//
// Example:
//
//	certd -addr :8377 -workers 8 -max-budget 5000000 -max-timeout 10s
//	curl -s localhost:8377/v1/solve -d '{"query":"R(x | y)","db":"R(a | b)"}'
//	curl -s localhost:8377/v1/solve/batch -d '{"query":"R(x | y)","items":[{"db":"R(a | b)"},{"db":"R(a | b) R(a | c)"}]}'
//	curl -s localhost:8377/metrics | grep certd_solve_total
//
//	certd -addr :8378 -fleet http://127.0.0.1:8377,http://127.0.0.1:8379
//	curl -s localhost:8378/v1/fleet
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"strings"

	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/fleet"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/server"
	"github.com/cqa-go/certainty/internal/wal"
)

func main() {
	var (
		addr           = flag.String("addr", ":8377", "listen address")
		workers        = flag.Int("workers", 4, "concurrent solve slots")
		queue          = flag.Int("queue", 0, "admission queue depth (0 = 2x workers)")
		maxTimeout     = flag.Duration("max-timeout", 30*time.Second, "hard cap on per-request solve time")
		maxBudget      = flag.Int64("max-budget", 10_000_000, "hard cap on per-request search steps")
		defTimeout     = flag.Duration("default-timeout", 5*time.Second, "solve time applied when the request asks for none")
		defBudget      = flag.Int64("default-budget", 1_000_000, "search steps applied when the request asks for none")
		rejectOverAsk  = flag.Bool("reject-over-ask", false, "reject requests exceeding the caps instead of clamping them")
		breakThresh    = flag.Int("breaker-threshold", 3, "consecutive cutoffs that trip a class breaker (<0 disables)")
		breakCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before a recovery probe")
		retryAfter     = flag.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
		degradeSamples = flag.Int("degrade-samples", 0, "cap on Monte-Carlo samples per degraded verdict (0 = solver default)")
		grace          = flag.Duration("grace", 10*time.Second, "shutdown grace period for draining in-flight solves")
		planCache      = flag.Int("plan-cache", 0, "compiled-plan cache capacity (0 = default)")
		verdictCache   = flag.Int("verdict-cache", 0, "hosted verdict cache capacity, used with -data-dir (0 = default, <0 disables)")
		maxBatch       = flag.Int("max-batch", 0, "maximum items per /v1/solve/batch request (0 = default)")
		pprofOn        = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		dataDir        = flag.String("data-dir", "", "directory for the durable hosted database (enables /v1/db; empty = stateless)")
		fsyncMode      = flag.String("fsync", "batch", "WAL durability: batch (one fsync per group commit), always, or never")
		segmentBytes   = flag.Int64("segment-bytes", 0, "WAL segment rotation size in bytes (0 = default 64 MiB)")
		snapshotEvery  = flag.Int("snapshot-every", 0, "checkpoint after this many WAL records (0 = default, <0 disables)")
		seedDB         = flag.String("db", "", "db-text file seeding a fresh -data-dir (ignored once the store has state)")
		fleetList      = flag.String("fleet", "", "comma-separated worker base URLs; run as a fleet coordinator instead of a worker")
		hedgeQuantile  = flag.Float64("hedge-quantile", 0.95, "latency quantile the hedging delay tracks (coordinator)")
		hedgeMin       = flag.Duration("hedge-min-delay", 5*time.Millisecond, "floor (and cold-start value) of the hedging delay (coordinator)")
		hedgeMax       = flag.Duration("hedge-max-delay", 2*time.Second, "ceiling of the hedging delay (coordinator)")
		noHedge        = flag.Bool("no-hedge", false, "disable hedged requests; failover still applies (coordinator)")
		probeEvery     = flag.Duration("probe-interval", time.Second, "period of the worker /readyz health sweep (coordinator)")
		groupSplit     = flag.Int("group-split", 0, "batch-group size above which one placement group splits across replicas (0 = default, coordinator)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "certd: ", log.LstdFlags)

	if *fleetList != "" {
		if *dataDir != "" {
			logger.Fatalf("-fleet and -data-dir are mutually exclusive: a coordinator holds no database")
		}
		runCoordinator(logger, coordinatorFlags{
			addr:          *addr,
			backends:      splitURLs(*fleetList),
			hedgeQuantile: *hedgeQuantile,
			hedgeMin:      *hedgeMin,
			hedgeMax:      *hedgeMax,
			noHedge:       *noHedge,
			probeEvery:    *probeEvery,
			groupSplit:    *groupSplit,
			maxBatch:      *maxBatch,
			grace:         *grace,
		})
		return
	}

	// The durable store opens BEFORE the server: crash recovery (snapshot
	// load + WAL replay) must finish so the first request sees the
	// recovered database, and an unrecoverable data-dir should fail the
	// process before it starts accepting traffic.
	var store *wal.Store
	if *dataDir != "" {
		mode, err := wal.ParseFsyncMode(*fsyncMode)
		if err != nil {
			logger.Fatalf("-fsync: %v", err)
		}
		var seed *db.DB
		if *seedDB != "" {
			text, err := os.ReadFile(*seedDB)
			if err != nil {
				logger.Fatalf("-db: %v", err)
			}
			if seed, err = db.Parse(string(text)); err != nil {
				logger.Fatalf("-db %s: %v", *seedDB, err)
			}
		}
		store, err = wal.Open(wal.Options{
			Dir:           *dataDir,
			Fsync:         mode,
			SegmentBytes:  *segmentBytes,
			SnapshotEvery: *snapshotEvery,
			Seed:          seed,
			Registry:      obs.Default,
			Logger:        logger,
		})
		if err != nil {
			logger.Fatalf("open data dir %s: %v", *dataDir, err)
		}
		_, v := store.DB()
		logger.Printf("hosted database open at version %d (dir %s, fsync %s)", v, *dataDir, mode)
	}

	s := server.New(server.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		Policy: govern.Policy{
			MaxTimeout:     *maxTimeout,
			MaxBudget:      *maxBudget,
			DefaultTimeout: *defTimeout,
			DefaultBudget:  *defBudget,
			Reject:         *rejectOverAsk,
		},
		BreakerThreshold: *breakThresh,
		BreakerCooldown:  *breakCooldown,
		RetryAfter:       *retryAfter,
		DegradeSamples:   *degradeSamples,
		PlanCacheSize:    *planCache,
		VerdictCacheSize: *verdictCache,
		MaxBatchItems:    *maxBatch,
		Logger:           logger,
		// The process-wide registry, so /metrics also exposes the solver,
		// db, governor, and engine counters recorded below the service
		// layer.
		Registry:    obs.Default,
		EnablePprof: *pprofOn,
		Store:       store,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (%d workers, budget cap %d, timeout cap %v)",
			*addr, *workers, *maxBudget, *maxTimeout)
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		logger.Fatalf("serve: %v", err)
	}

	// Graceful shutdown: stop admitting (new requests get 503), cancel
	// in-flight governors so searches return partial verdicts, let the HTTP
	// layer flush those responses, then wait for the pool to empty.
	logger.Printf("signal received; draining (grace %v)", *grace)
	s.BeginDrain()
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(graceCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := s.Drain(graceCtx); err != nil {
		logger.Printf("drain: %v", err)
		if store != nil {
			store.Close() // best effort: still fsync what we can
		}
		os.Exit(1)
	}
	// Close the store only after the drain: every in-flight mutation has
	// committed and written its response by now.
	if store != nil {
		if err := store.Close(); err != nil {
			logger.Printf("close store: %v", err)
			os.Exit(1)
		}
	}
	logger.Printf("drained cleanly")
}

// splitURLs parses the -fleet list, trimming blanks.
func splitURLs(list string) []string {
	var out []string
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

type coordinatorFlags struct {
	addr          string
	backends      []string
	hedgeQuantile float64
	hedgeMin      time.Duration
	hedgeMax      time.Duration
	noHedge       bool
	probeEvery    time.Duration
	groupSplit    int
	maxBatch      int
	grace         time.Duration
}

// runCoordinator serves the fleet coordinator until SIGINT/SIGTERM, then
// drains: stop admitting, let in-flight routed requests finish, exit.
func runCoordinator(logger *log.Logger, f coordinatorFlags) {
	if len(f.backends) == 0 {
		logger.Fatalf("-fleet: no worker URLs")
	}
	c := fleet.New(fleet.Config{
		Backends:      f.backends,
		HedgeQuantile: f.hedgeQuantile,
		HedgeMinDelay: f.hedgeMin,
		HedgeMaxDelay: f.hedgeMax,
		HedgeDisabled: f.noHedge,
		ProbeInterval: f.probeEvery,
		GroupSplit:    f.groupSplit,
		MaxBatchItems: f.maxBatch,
		Registry:      obs.Default,
		Logger:        logger,
	})
	c.Start()
	defer c.Close()

	httpSrv := &http.Server{Addr: f.addr, Handler: c.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("coordinating %d workers on %s (hedge %v..%v at p%.0f, probe every %v)",
			len(f.backends), f.addr, f.hedgeMin, f.hedgeMax, f.hedgeQuantile*100, f.probeEvery)
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		logger.Fatalf("serve: %v", err)
	}

	logger.Printf("signal received; draining coordinator (grace %v)", f.grace)
	c.BeginDrain()
	graceCtx, cancel := context.WithTimeout(context.Background(), f.grace)
	defer cancel()
	if err := httpSrv.Shutdown(graceCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
		os.Exit(1)
	}
	logger.Printf("coordinator drained cleanly")
}
