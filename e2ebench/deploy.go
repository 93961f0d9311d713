package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/fleet"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/server"
	"github.com/cqa-go/certainty/internal/wal"
)

// Settings each node runs with. Workers take cmd/certd's flag defaults;
// the coordinator takes fleet.New's defaults, which certd's -fleet flags
// mirror. The hosted store differs from certd's defaults only in its
// checkpoint cadence, which is set so each run crosses several snapshots.
const (
	hostedFsync         = wal.FsyncBatch
	hostedSnapshotEvery = 64
	// drainGrace is certd's -grace default.
	drainGrace = 10 * time.Second
)

func workerConfig(logger *log.Logger, reg *obs.Registry, store *wal.Store) server.Config {
	return server.Config{
		Workers: 4,
		Policy: govern.Policy{
			MaxTimeout:     30 * time.Second,
			MaxBudget:      10_000_000,
			DefaultTimeout: defaultTimeout,
			DefaultBudget:  defaultBudget,
		},
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		RetryAfter:       time.Second,
		Logger:           logger,
		Registry:         reg,
		Store:            store,
	}
}

// settingsLine describes the node settings for the run header.
func settingsLine(w string) string {
	s := "worker: workers=4 queue=8 max-timeout=30s max-budget=10000000 default-timeout=5s " +
		"default-budget=1000000 breaker=3/5s plan-cache=1024 verdict-cache=4096 max-batch=256 " +
		"log=file own-registry"
	switch w {
	case "hosted-rw":
		s += "; store: fsync=" + string(hostedFsync) + " segment-bytes=64MiB snapshot-every=" +
			strconv.Itoa(hostedSnapshotEvery) + " shard-memo=4096"
	case "fleet-batch":
		s += "; coordinator (2 workers): hedge p95 in [5ms,2s] probe-interval=1s group-split=8 max-batch=256"
	}
	return s
}

// node is one certd endpoint served in-process by net/http on loopback: a
// worker (srv) or a fleet coordinator (coord).
type node struct {
	name  string
	url   string
	reg   *obs.Registry
	srv   *server.Server
	coord *fleet.Coordinator
	hs    *http.Server
	done  chan error // receives Serve's return value
	log   *os.File
}

// traced is the benchmark-side handler wrapper of a traced run: it opens a
// root span per request and attaches the tracer to the request context, so
// the spans the solver emits nest under it.
type traced struct {
	node string
	next http.Handler
	tr   *obs.Tracer
}

// opHeader carries the op's stream index, so spans can be matched with the
// request body they served.
const opHeader = "X-Bench-Op"

func (t traced) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, sp := obs.StartSpan(obs.WithTracer(r.Context(), t.tr), "handler")
	sp.SetAttr("node", t.node)
	sp.SetAttr("route", r.Method+" "+r.URL.Path)
	if id := r.Header.Get(opHeader); id != "" {
		sp.SetAttr("op", id)
	}
	t.next.ServeHTTP(w, r.WithContext(ctx))
	sp.End()
}

func newNode(name, dir string) (*node, *log.Logger, error) {
	f, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, nil, err
	}
	return &node{name: name, reg: obs.NewRegistry(), log: f}, log.New(f, "certd: ", log.LstdFlags), nil
}

// serve starts serving h on a fresh loopback port.
func (n *node) serve(h http.Handler, tr *obs.Tracer) error {
	if tr != nil {
		h = traced{node: n.name, next: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{Handler: h}
	n.done = make(chan error, 1)
	go func() { n.done <- n.hs.Serve(ln) }()
	return nil
}

// close drains the node the way certd does on SIGTERM: stop admitting,
// shut the HTTP server down, wait for in-flight work. It returns once the
// Serve goroutine has exited.
func (n *node) close(ctx context.Context) error {
	if n.srv != nil {
		n.srv.BeginDrain()
	}
	if n.coord != nil {
		n.coord.BeginDrain()
	}
	var errs []error
	if n.hs != nil {
		if err := n.hs.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("%s: shutdown: %w", n.name, err))
			n.hs.Close()
		}
		if err := <-n.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("%s: serve: %w", n.name, err))
		}
	}
	if n.srv != nil {
		if err := n.srv.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("%s: drain: %w", n.name, err))
		}
	}
	if n.coord != nil {
		n.coord.Close()
	}
	if err := n.log.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// deployment is the certd topology of one workload: the node the
// generator sends to comes first.
type deployment struct {
	nodes []*node
	store *wal.Store
	dir   string // logs and the data directory; removed by close
}

func (d *deployment) entry() *node { return d.nodes[0] }

// close tears the deployment down on every path: nodes in order
// (coordinator first), then the store, then the directory.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	var errs []error
	for _, n := range d.nodes {
		errs = append(errs, n.close(ctx))
	}
	if d.store != nil {
		errs = append(errs, d.store.Close())
	}
	// The coordinator's backend clients use the default transport; its idle
	// keep-alive connections would otherwise outlive the workers.
	http.DefaultClient.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// deploy builds the workload's topology, tracing every node when tr is
// non-nil. On error, whatever was built is torn down.
func deploy(ctx context.Context, w *workload, hostedText string, tr *obs.Tracer) (_ *deployment, err error) {
	dir, err := os.MkdirTemp("", "e2ebench-")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir}
	defer func() {
		if err != nil {
			err = errors.Join(err, d.close())
		}
	}()
	startWorker := func(name string, store *wal.Store) (*node, error) {
		n, logger, err := newNode(name, dir)
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, n)
		n.srv = server.New(workerConfig(logger, n.reg, store))
		return n, n.serve(n.srv.Handler(), tr)
	}
	switch w.name {
	case "solve-inline":
		_, err = startWorker("node", nil)
	case "hosted-rw":
		// certd -data-dir -db: parse the seed text, open the store (which
		// writes the seed snapshot), then serve.
		var seed *db.DB
		if seed, err = db.Parse(hostedText); err != nil {
			return nil, err
		}
		n, logger, nerr := newNode("node", dir)
		if nerr != nil {
			return nil, nerr
		}
		d.nodes = append(d.nodes, n)
		d.store, err = wal.Open(wal.Options{
			Dir:           filepath.Join(dir, "data"),
			Fsync:         hostedFsync,
			SnapshotEvery: hostedSnapshotEvery,
			Seed:          seed,
			Registry:      n.reg,
			Logger:        logger,
		})
		if err != nil {
			return nil, err
		}
		n.srv = server.New(workerConfig(logger, n.reg, d.store))
		err = n.serve(n.srv.Handler(), tr)
	case "fleet-batch":
		c, logger, cerr := newNode("coordinator", dir)
		if cerr != nil {
			return nil, cerr
		}
		d.nodes = append(d.nodes, c)
		var urls []string
		for i := 0; i < 2; i++ {
			n, err := startWorker("worker"+strconv.Itoa(i), nil)
			if err != nil {
				return nil, err
			}
			urls = append(urls, n.url)
		}
		c.coord = fleet.New(fleet.Config{Backends: urls, Registry: c.reg, Logger: logger})
		c.coord.Start()
		if err = c.serve(c.coord.Handler(), tr); err != nil {
			return nil, err
		}
		pctx, cancel := context.WithTimeout(ctx, drainGrace)
		c.coord.ProbeNow(pctx)
		cancel()
		for _, b := range c.coord.Backends() {
			if !b.Healthy() {
				return nil, fmt.Errorf("fleet: backend %s failed its first health probe", b.URL())
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}
