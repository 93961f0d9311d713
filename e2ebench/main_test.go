package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestStreamDeterministic checks that a seed fixes the request stream byte
// for byte, even though ops are built on several goroutines, and that
// another seed changes it.
func TestStreamDeterministic(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			hash := func(seed int64) string {
				st := &stream{warmup: w.warmup(seed), ops: w.ops(seed, 24), sched: arrivals(seed, 100, 100*time.Millisecond)}
				if name == "hosted-rw" {
					st.hostedText = hostedSeed(seed)
				}
				return streamHash(st)
			}
			a, b, c := hash(7), hash(7), hash(8)
			if a != b {
				t.Fatalf("seed 7 gave two streams: %s, %s", a, b)
			}
			if a == c {
				t.Fatalf("seeds 7 and 8 gave the same stream %s", a)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads the
// command runs and the metrics it prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []named, want []struct{ name, unit string }) {
		t.Helper()
		m := map[string]string{}
		for _, n := range got {
			m[n.Name] = n.Unit
		}
		if len(m) != len(want) || len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the command %d", what, len(got), len(want))
		}
		for _, w := range want {
			if u, ok := m[w.name]; !ok || u != w.unit {
				t.Errorf("%s: %s (%s) is %q in BENCHMARK.json", what, w.name, w.unit, u)
			}
		}
	}
	var wls []struct{ name, unit string }
	for name := range workloads {
		wls = append(wls, struct{ name, unit string }{name, ""})
	}
	same("workloads", spec.Workloads, wls)
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestShortPassLeavesNothing runs a short traced pass of every workload in
// process and checks its result, then that no listener, goroutine or
// temporary directory survived it.
func TestShortPassLeavesNothing(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			tmp := isolate(t)
			res, err := run(context.Background(), config{workload: name, seed: 3, seconds: 1, trace: 1, spansDir: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			if got, want := len(res.Metrics), len(perLayerMetrics); got != want {
				t.Fatalf("%d metrics, want %d", got, want)
			}
			if res.Metrics["obs.spans_dropped"].Value != 0 {
				t.Fatalf("%v spans dropped", res.Metrics["obs.spans_dropped"].Value)
			}
			assertClean(t, tmp)
		})
	}
}

// TestFailedCheckAndPanicLeaveNothing corrupts the stream twice: a wrong
// expected verdict must fail the check, and an op whose expectation is
// missing panics on a sender goroutine; neither may leave anything behind.
func TestFailedCheckAndPanicLeaveNothing(t *testing.T) {
	w := workloads["hosted-rw"]
	st := w.generate(5, 1)
	cfg := config{workload: w.name, seed: 5, seconds: 1}
	for i := range st.ops {
		if st.ops[i].kind == opSolve {
			st.ops[i].want[0] = 1 - st.ops[i].want[0] // certain <-> not-certain
			break
		}
	}
	tmp := isolate(t)
	res, err := measure(context.Background(), cfg, w, st, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a wrong expected verdict passed the check")
	}
	assertClean(t, tmp)

	for i := range st.ops {
		if st.ops[i].kind == opSolve {
			st.ops[i].want = nil
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic from an op without an expected verdict")
			}
		}()
		measure(context.Background(), cfg, w, st, io.Discard)
	}()
	assertClean(t, tmp)
}

// TestSignalLeavesNothing runs the built command and stops it with SIGINT
// and SIGTERM mid-measurement: it must exit non-zero without printing a
// result, having started no process and removed its temporary directory.
func TestSignalLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "e2ebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) {
			tmp := filepath.Join(t.TempDir(), "tmp")
			if err := os.Mkdir(tmp, 0o755); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(bin, "--workload", "hosted-rw", "--seed", "4", "--seconds", "30", "--spans", t.TempDir())
			cmd.Dir = t.TempDir()
			cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			lines := bufio.NewScanner(stdout)
			var out []string
			for lines.Scan() {
				out = append(out, lines.Text())
				if strings.HasPrefix(lines.Text(), "stream:") {
					break
				}
			}
			time.Sleep(3 * time.Second) // into the measured phases
			if kids := children(cmd.Process.Pid); len(kids) > 0 {
				t.Errorf("the benchmark started processes %v", kids)
			}
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			for lines.Scan() {
				out = append(out, lines.Text())
			}
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				t.Fatal("no exit within 30s of the signal")
			}
			if err == nil {
				t.Fatal("exit code 0 after a signal")
			}
			if last := out[len(out)-1]; strings.HasPrefix(last, "{") {
				t.Fatalf("printed a result after a signal: %s", last)
			}
			if ents, _ := os.ReadDir(tmp); len(ents) > 0 {
				t.Fatalf("left %d entries in the temporary directory", len(ents))
			}
		})
	}
}

// isolate points the process's temporary directory at a fresh one.
func isolate(t *testing.T) string {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	return tmp
}

// assertClean checks that tmp is empty, that this process holds no
// listening socket, and that the goroutines the run started have exited.
func assertClean(t *testing.T, tmp string) {
	t.Helper()
	if ents, _ := os.ReadDir(tmp); len(ents) > 0 {
		t.Errorf("temporary directory holds %d entries", len(ents))
	}
	if n := listeners(t); n > 0 {
		t.Errorf("%d listening sockets still open", n)
	}
	// Goroutines of closed connections finish asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines left, started with %d:\n%s", n, baseGoroutines, buf[:runtime.Stack(buf, true)])
	}
}

var baseGoroutines = runtime.NumGoroutine()

// listeners counts this process's TCP sockets in the LISTEN state.
func listeners(t *testing.T) int {
	t.Helper()
	ours := map[string]bool{}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		link, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(link, "socket:[") {
			ours[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	n := 0
	for _, table := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		b, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n")[1:] {
			f := strings.Fields(line)
			if len(f) > 9 && f[3] == "0A" && ours[f[9]] {
				n++
			}
		}
	}
	return n
}

// children lists the pids whose parent is pid.
func children(pid int) []string {
	var out []string
	procs, _ := os.ReadDir("/proc")
	for _, p := range procs {
		b, err := os.ReadFile(filepath.Join("/proc", p.Name(), "stat"))
		if err != nil {
			continue
		}
		// pid (comm) state ppid ...: comm may hold spaces, so split after ')'.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 1 && f[1] == strconv.Itoa(pid) {
			out = append(out, p.Name())
		}
	}
	return out
}
