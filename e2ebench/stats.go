package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/cqa-go/certainty/internal/obs"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. An empty xs gives 0.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(xs[hi], 1) {
		// A failed request misses every latency limit; JSON has no
		// infinity, so the largest float stands in.
		return math.MaxFloat64
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts to float64 in the given unit converter.
func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// ratio divides, giving 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counters is one reading of every metric a node exposes: the Prometheus
// text of /metrics (series name with labels → value), plus /v1/statsz
// flattened to "statsz.<cache>.<field>".
type counters map[string]float64

// parsePrometheus reads the text exposition format.
func parsePrometheus(r io.Reader, into counters) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return fmt.Errorf("metrics: %q: %w", line, err)
		}
		into[line[:i]] = v
	}
	return sc.Err()
}

// scrape reads a node's /metrics and, on workers, /v1/statsz.
func scrape(ctx context.Context, c *http.Client, n *node) (counters, error) {
	out := counters{}
	get := func(path string) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, "GET", n.url+path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s%s: HTTP %d", n.url, path, resp.StatusCode)
		}
		return body, err
	}
	text, err := get("/metrics")
	if err != nil {
		return nil, err
	}
	if err := parsePrometheus(bytes.NewReader(text), out); err != nil {
		return nil, err
	}
	if n.srv == nil {
		return out, nil
	}
	js, err := get("/v1/statsz")
	if err != nil {
		return nil, err
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal(js, &st); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	for cache, raw := range st {
		var fields map[string]float64
		if json.Unmarshal(raw, &fields) != nil {
			continue // scalar entries such as shard_memo_invalidations
		}
		for k, v := range fields {
			out["statsz."+cache+"."+k] = v
		}
	}
	return out, nil
}

// processCounters reads the process-wide registry (db, govern, shard,
// engine counters), which no node's own registry carries.
func processCounters() counters {
	var buf bytes.Buffer
	out := counters{}
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	if err := parsePrometheus(&buf, out); err != nil {
		panic(err) // the registry's own exposition is well-formed
	}
	return out
}

// add accumulates after−before into c.
func (c counters) add(before, after counters) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}

// sum adds every series whose key starts with prefix.
func (c counters) sum(prefix string) float64 {
	t := 0.0
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts VmHWM from the current resident set, so the peak
// excludes input generation.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
