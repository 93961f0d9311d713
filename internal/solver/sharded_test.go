package solver

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/govern"
)

// shardCountsUnderTest are the shard caps every differential test sweeps:
// no sharding benefit (1), minimal (2), the host's parallelism, and more
// shards than any instance has components.
func shardCountsUnderTest() []int {
	return []int{1, 2, runtime.NumCPU(), 0, 1 << 10}
}

// TestShardedMatchesMonolithic: for every dispatched method, the sharded
// solve returns a byte-identical verdict to the monolithic SolveCtx at
// every shard count. This is the tentpole differential suite: sharding must
// change scheduling, never answers.
func TestShardedMatchesMonolithic(t *testing.T) {
	ctx := context.Background()
	for _, tc := range differentialCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for di, d := range tc.dbs {
				mono, err := SolveCtx(ctx, tc.q, d, Options{})
				if err != nil {
					t.Fatalf("db %d: monolithic: %v", di, err)
				}
				want := verdictFingerprint(t, mono)
				for _, n := range shardCountsUnderTest() {
					sharded, err := Solve(ctx, tc.q, d, WithShards(n))
					if err != nil {
						t.Fatalf("db %d shards %d: %v", di, n, err)
					}
					if got := verdictFingerprint(t, sharded); got != want {
						t.Errorf("db %d shards %d:\n got %s\nwant %s", di, n, got, want)
					}
				}
			}
		})
	}
}

// TestShardedDisconnectedQuery exercises the conjunction across query
// components: certain ∧ certain, certain ∧ not-certain, and the empty
// component (a relation with no facts at all).
func TestShardedDisconnectedQuery(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParseQuery("R(x | y), S(y | z), U(u | v)")
	cases := []struct {
		name string
		d    *db.DB
	}{
		{"both-certain", db.MustParse(`R(a | b) S(b | c) U(k | w)`)},
		{"second-uncertain", db.MustParse(`R(a | b) S(b | c) U(k | w) U(k | w2)`)},
		{"first-uncertain", db.MustParse(`R(a | b) R(a | b2) S(b | c) U(k | w)`)},
		{"empty-component", db.MustParse(`R(a | b) S(b | c)`)},
		{"many-chains", db.MustParse(`
			R(a | b) S(b | c)
			R(a2 | b2) S(b2 | c2)
			R(a3 | b3) S(b3 | c3)
			U(k | w) U(k2 | w2)
		`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mono, err := SolveCtx(ctx, q, tc.d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := verdictFingerprint(t, mono)
			for _, n := range shardCountsUnderTest() {
				sharded, err := Solve(ctx, q, tc.d, WithShards(n))
				if err != nil {
					t.Fatalf("shards %d: %v", n, err)
				}
				if got := verdictFingerprint(t, sharded); got != want {
					t.Errorf("shards %d:\n got %s\nwant %s", n, got, want)
				}
			}
		})
	}
}

// shuffled rebuilds d with its facts in a random order. Shuffling never
// moves a fact between co-occurrence components, so it is exactly the
// component-preserving permutation the sharding invariant must absorb.
func shuffled(t *testing.T, d *db.DB, r *rand.Rand) *db.DB {
	t.Helper()
	facts := append([]db.Fact(nil), d.Facts()...)
	r.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	out := db.New()
	for _, f := range facts {
		if err := out.Add(f); err != nil {
			t.Fatalf("re-add %v: %v", f, err)
		}
	}
	return out
}

// TestShardedShuffleProperty is the satellite property test: random
// component-preserving fact shuffles and arbitrary shard counts never
// change a verdict. (The count/probability halves live in internal/prob.)
func TestShardedShuffleProperty(t *testing.T) {
	ctx := context.Background()
	queries := []cq.Query{
		cq.MustParseQuery("R(x | y), S(y | z)"),
		cq.MustParseQuery("R(x | y), S(y | z), U(u | v)"),
		cq.ACk(3),
		cq.Q0(),
	}
	for qi, q := range queries {
		for seed := int64(0); seed < 4; seed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 4, Noise: 4, Domain: 3}, 100+seed)
			mono, err := SolveCtx(ctx, q, d, Options{})
			if err != nil {
				t.Fatalf("q%d seed %d: %v", qi, seed, err)
			}
			r := rand.New(rand.NewSource(seed * 7717))
			for trial := 0; trial < 3; trial++ {
				perm := shuffled(t, d, r)
				for _, n := range []int{1, 2, runtime.NumCPU(), 1 << 10} {
					v, err := Solve(ctx, q, perm, WithShards(n))
					if err != nil {
						t.Fatalf("q%d seed %d trial %d shards %d: %v", qi, seed, trial, n, err)
					}
					if v.Outcome != mono.Outcome || v.Result.Certain != mono.Result.Certain {
						t.Errorf("q%d seed %d trial %d shards %d: outcome %v/%v, want %v/%v",
							qi, seed, trial, n, v.Outcome, v.Result.Certain, mono.Outcome, mono.Result.Certain)
					}
				}
			}
		}
	}
}

// TestShardedBudgetSplit: a finite budget is split across shards and a
// cutoff degrades to OutcomeUnknown, never to an error or a wrong answer.
func TestShardedBudgetSplit(t *testing.T) {
	ctx := context.Background()
	q := cq.ACk(3)
	d := gen.CycleDB(gen.CycleConfig{K: 3, Components: 8, Width: 2})
	v, err := Solve(ctx, q, d, WithShards(4), WithBudget(1), WithDegradeSamples(-1))
	if err != nil {
		t.Fatalf("budgeted sharded solve: %v", err)
	}
	if v.Outcome != OutcomeUnknown {
		t.Fatalf("outcome = %v, want Unknown under a 1-step budget", v.Outcome)
	}
	if v.Err == nil || v.Evidence == nil {
		t.Fatalf("unknown verdict missing cutoff cause/evidence: err=%v evidence=%v", v.Err, v.Evidence)
	}
	// And with room to breathe the same call is conclusive and correct.
	full, err := Solve(ctx, q, d, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	mono, err := SolveCtx(ctx, q, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Outcome != mono.Outcome {
		t.Fatalf("unbudgeted sharded outcome %v, monolithic %v", full.Outcome, mono.Outcome)
	}
}

// TestSolveOptionDispatch pins the Solve facade's routing: zero options is
// SolveCtx, WithPlanCache goes through the source, WithShards(1) falls back
// to the monolithic plan path.
func TestSolveOptionDispatch(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	d := db.MustParse(`R(a | b) S(b | c)`)
	want, err := SolveCtx(ctx, q, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingPlans{}
	for _, opts := range [][]Option{
		nil,
		{WithShards(1)},
		{WithShards(-1)},
		{WithPlanCache(src)},
		{WithPlanCache(src), WithShards(2)},
		{WithBudget(1 << 20), WithDeadline(time.Minute)},
	} {
		v, err := Solve(ctx, q, d, opts...)
		if err != nil {
			t.Fatalf("opts %d: %v", len(opts), err)
		}
		if verdictFingerprint(t, v) != verdictFingerprint(t, want) {
			t.Errorf("opts %v: verdict differs from SolveCtx", opts)
		}
	}
	if src.calls == 0 {
		t.Error("WithPlanCache source was never consulted")
	}
}

type countingPlans struct {
	mu    sync.Mutex
	calls int
}

func (c *countingPlans) Get(ctx context.Context, q cq.Query) (*Plan, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return CompilePlan(q)
}

// TestSolveBatch: batch results match individual solves item-for-item, the
// observer sees every item exactly once before the call returns, and plan
// compilation is amortized across items sharing a canonical query.
func TestSolveBatch(t *testing.T) {
	ctx := context.Background()
	q1 := cq.MustParseQuery("R(x | y), S(y | z)")
	q2 := cq.ACk(3)
	items := []BatchItem{
		{Query: q1, DB: db.MustParse(`R(a | b) S(b | c)`)},
		{Query: q1, DB: db.MustParse(`R(a | b) R(a | b2) S(b | c)`)},
		{Query: q2, DB: gen.CycleDB(gen.CycleConfig{K: 3, Components: 3, Width: 2, EncodeAll: true})},
		{Query: q1, DB: db.MustParse(`R(a | b) S(b | c) S(b | c2)`)},
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	src := &countingPlans{}
	results := SolveBatch(ctx, items, WithPlanCache(src), WithObserver(func(r BatchResult) {
		mu.Lock()
		seen[r.Index]++
		mu.Unlock()
	}))
	if len(results) != len(items) {
		t.Fatalf("got %d results, want %d", len(results), len(items))
	}
	for i, it := range items {
		if results[i].Index != i {
			t.Errorf("results[%d].Index = %d", i, results[i].Index)
		}
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		want, err := SolveCtx(ctx, it.Query, it.DB, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if verdictFingerprint(t, results[i].Verdict) != verdictFingerprint(t, want) {
			t.Errorf("item %d: batch verdict differs from individual solve", i)
		}
		if seen[i] != 1 {
			t.Errorf("observer saw item %d %d times, want 1", i, seen[i])
		}
	}
	// Two distinct canonical queries → two source lookups, not four: the
	// batch memo deduplicates repeats before hitting the source.
	if src.calls != 2 {
		t.Errorf("plan source consulted %d times, want 2 (one per distinct query)", src.calls)
	}
	// Sharded batches agree too.
	shardedResults := SolveBatch(ctx, items, WithShards(2))
	for i := range items {
		if shardedResults[i].Err != nil {
			t.Fatalf("sharded item %d: %v", i, shardedResults[i].Err)
		}
		if verdictFingerprint(t, shardedResults[i].Verdict) != verdictFingerprint(t, results[i].Verdict) {
			t.Errorf("item %d: sharded batch verdict differs", i)
		}
	}
}

func TestSolveBatchCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	results := SolveBatch(ctx, []BatchItem{{Query: q, DB: db.MustParse(`R(a | b) S(b | c)`)}})
	if results[0].Err == nil {
		t.Fatal("cancelled batch reported success")
	}
}

// TestWorkerBudgetShared is the satellite regression test: the shard pool
// and the batch fan-out draw extra goroutines from ONE gate, so nesting
// them cannot push the peak goroutine count past baseline + limit (+ the
// sampler itself).
func TestWorkerBudgetShared(t *testing.T) {
	const limit = 3
	restore := govern.SetWorkerLimit(limit)
	defer restore()

	q := cq.ACk(3)
	items := make([]BatchItem, 6)
	for i := range items {
		items[i] = BatchItem{Query: q, DB: gen.CycleDB(gen.CycleConfig{K: 3, Components: 6, Width: 2, EncodeAll: i%2 == 0})}
	}

	baseline := runtime.NumGoroutine()
	stop := make(chan struct{})
	peak := make(chan int, 1)
	go func() {
		max := 0
		for {
			select {
			case <-stop:
				peak <- max
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > max {
				max = n
			}
		}
	}()

	// Nested fan-out: batch items × shard joins.
	results := SolveBatch(context.Background(), items, WithShards(4))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	close(stop)
	got := <-peak
	// baseline + the sampler + at most `limit` gate workers. Anything above
	// means a fan-out layer is spawning outside the shared budget.
	if allowed := baseline + 1 + limit; got > allowed {
		t.Fatalf("peak goroutines %d > allowed %d (baseline %d + sampler + %d gate slots)",
			got, allowed, baseline, limit)
	}
}
