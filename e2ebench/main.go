// Command e2ebench measures certd end to end. It runs certd nodes inside
// its own process — server.New with cmd/certd's default settings, served
// by net/http on 127.0.0.1:0, plus two workers and a fleet.Coordinator for
// the fleet workload — and drives them over loopback from a seeded request
// generator with at most nproc senders. It checks every answer against a
// verdict computed independently of the served path, and prints the
// workload's end-to-end metrics; with --trace 1 it repeats the run with
// spans on and prints the per-layer breakdown instead. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Run it from the repository root through the build wrapper:
//
//	bash e2ebench/run.sh --workload solve-inline --seed 1 --seconds 10 --trace 0
//
// BENCHMARK.md in this directory describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

func main() { os.Exit(mainCode()) }

func mainCode() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: solve-inline, hosted-rw or fleet-batch")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed sends the same requests")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per pass")
	flag.IntVar(&cfg.trace, "trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	flag.StringVar(&cfg.spansDir, "spans", ".bench_build/spans", "directory the traced pass writes its spans to")
	flag.Parse()
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spansDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run generates the workload's stream, measures it, and returns the
// result. Every node, listener and temporary directory it creates is gone
// when it returns, whether it returns normally, with an error, or by a
// panic (re-raised after cleanup). A cancelled ctx (SIGINT/SIGTERM) makes
// it return ctx's error and no result.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want solve-inline, hosted-rw or fleet-batch)", cfg.workload)
	}
	st := w.generate(cfg.seed, cfg.seconds)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return measure(ctx, cfg, w, st, out)
}

// measure runs the untraced pass, and the traced pass when asked.
func measure(ctx context.Context, cfg config, w *workload, st *stream, out io.Writer) (*result, error) {
	printHeader(out, cfg, w, st)
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	plain, err := runPass(ctx, w, st, nil, 0)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if plain.verdicts() == 0 {
		return nil, errors.New("the closed loop answered no verdict")
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	plain.tally(res)
	e2e := endToEnd(plain, rss)
	printPass(out, "untraced", plain, e2e)
	if cfg.trace == 0 {
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		return res, nil
	}
	tr := w.tracer(st, len(plain.closed))
	traced, err := runPass(ctx, w, st, tr, len(plain.closed)+len(plain.closed)/4+nproc)
	if err != nil {
		return nil, err
	}
	traced.tally(res)
	printPass(out, "traced", traced, endToEnd(traced, rss))
	if err := writeSpans(cfg, traced); err != nil {
		return nil, err
	}
	layers := perLayer(w, st, plain, traced)
	names := make([]string, 0, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		v, ok := layers[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
		names = append(names, m.name)
	}
	sort.Strings(names)
	fmt.Fprintln(out, "per-layer (traced pass; client.* from the untraced pass):")
	for _, n := range names {
		fmt.Fprintf(out, "  %-40s %14.4f %s%s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit, layers.base(n))
	}
	return res, nil
}

// writeSpans writes the traced pass's spans, one JSON object per line.
func writeSpans(cfg config, p *passResult) error {
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/%s-seed%d.jsonl", cfg.spansDir, cfg.workload, cfg.seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range p.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return errors.Join(f.Sync(), f.Close())
}
