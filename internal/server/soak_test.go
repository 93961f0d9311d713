package server

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/wal"
)

// raceEnabled reports a -race build (race_on_test.go).
var raceEnabled bool

// soakToggle is toggle j of the soak: one more R1 fact in the first block
// of a component, as the end-to-end benchmark's hosted-rw writes are.
func soakToggle(j int) db.Fact {
	comp := (j + 1) * 337 % 1000
	return db.NewFact("R1", 1, fmt.Sprintf("v%d_0_0", comp), fmt.Sprintf("t%d", j+1))
}

// TestHostedWriteSoak runs 2,000 writes in the end-to-end benchmark's
// toggle pattern (write 2j inserts toggle j, write 2j+1 deletes toggle j-1)
// against the hosted C(3) store at 1,000 components, with the benchmark's
// store settings, each write followed by hosted solves. At four
// checkpoints every hosted answer must equal a from-scratch solve of a
// fresh parse of its snapshot. At the end the goroutines must be back at
// their baseline and, outside -race, the live heap within 25% of its size
// after the first 100 writes: a trie node, change log, memoized order or
// view that kept older versions alive would grow it write by write.
func TestHostedWriteSoak(t *testing.T) {
	seed := gen.CycleDB(gen.CycleConfig{K: 3, Components: 1000, Width: 2, SkipSk: true})
	if err := seed.Add(soakToggle(-1)); err != nil {
		t.Fatal(err)
	}
	st, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncBatch, SnapshotEvery: 64,
		Seed: seed, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// A small verdict cache fills within the first 100 writes, so the
	// heap bound below sees the database, not the cache filling up.
	s := New(Config{Store: st, Registry: obs.NewRegistry(), VerdictCacheSize: 16,
		Policy: govern.Policy{DefaultBudget: 1 << 20, MaxBudget: 1 << 20}})
	queries := []string{cq.Ck(3).String(), "R2(x | y)"}
	solve := func(q string) hostedAnswer {
		t.Helper()
		resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: q}))
		if resp.DBVersion == nil {
			t.Fatalf("hosted solve of %s carries no version", q)
		}
		return hostedAnswer{*resp.DBVersion, q, resp.Verdict.Outcome, resp.Cached, resp.Delta}
	}
	// liveHeap reads the live heap once no WAL checkpoint is in flight: a
	// background checkpoint holds its encode buffers only while it runs,
	// which would put a transient in either reading. Checkpoint waits for
	// the one in flight and takes one of the current version, so both
	// readings hold that version's derived fact order and nothing else of
	// a checkpoint.
	liveHeap := func() uint64 {
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// checkpoint checks the hosted answers at version v against a fresh
	// parse of the snapshot.
	checkpoint := func(v uint64) {
		snaps := &snapshotLog{facts: map[uint64]string{}}
		snaps.record(t, st, v)
		var answers []hostedAnswer
		for _, q := range queries {
			answers = append(answers, solve(q))
		}
		snaps.check(t, answers)
	}

	runtime.GC()
	goroutines := runtime.NumGoroutine()
	var heap100, heap uint64
	const writes = 2000
	for w := 1; w <= writes; w++ {
		method, f := "POST", soakToggle((w-1)/2)
		if w%2 == 0 {
			method, f = "DELETE", soakToggle((w-1)/2-1)
		}
		v := mutateHosted(t, s, method, f.String())
		solve(queries[0])
		if w%4 == 0 {
			solve(queries[1])
		}
		// Both heap readings come after a write, its solves and a
		// checkpoint of that version (liveHeap).
		switch w {
		case 100:
			heap100 = liveHeap()
		case writes:
			heap = liveHeap()
		}
		if w%(writes/4) == 0 {
			checkpoint(v)
		}
	}

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the writes, %d after", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if raceEnabled {
		return
	}
	t.Logf("live heap %.1f MB after 100 writes, %.1f MB after %d", float64(heap100)/(1<<20), float64(heap)/(1<<20), writes)
	if heap > heap100+heap100/4 || heap < heap100-heap100/4 {
		t.Errorf("live heap %d B after %d writes is not within 25%% of %d B after 100", heap, writes, heap100)
	}
}
