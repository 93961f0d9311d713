package solver

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/shard"
	"github.com/cqa-go/certainty/internal/wal"
)

// deltaShardCounts are the shard caps the delta differential suite sweeps:
// no sharding benefit (1), minimal (2), the host's parallelism, and more
// shards than any instance has co-occurrence groups (so every group is its
// own shard).
func deltaShardCounts() []int {
	return []int{1, 2, runtime.NumCPU(), 1 << 10}
}

// deltaScenarios are the query families the delta suite mutates under:
// the FO-rewritable chain, a disconnected query (conjunction across
// components plus a noise relation), and the coNP-complete falsifying
// search.
func deltaScenarios() []struct {
	name string
	q    cq.Query
} {
	return []struct {
		name string
		q    cq.Query
	}{
		{"fo-chain", cq.MustParseQuery("R(x | y), S(y | z)")},
		{"disconnected", cq.MustParseQuery("R(x | y), S(y | z), U(u | v)")},
		{"conp", cq.Q0()},
	}
}

// randomFactFor draws a fact matching one of q's atom signatures with
// arguments from a small domain — small enough that inserts collide with
// existing blocks (the interesting case for block-granular invalidation).
func randomFactFor(q cq.Query, r *rand.Rand) db.Fact {
	a := q.Atoms[r.Intn(len(q.Atoms))]
	args := make([]string, len(a.Args))
	for i := range args {
		args[i] = string(rune('a' + r.Intn(3)))
	}
	return db.Fact{Rel: a.Rel, KeyLen: a.KeyLen, Args: args}
}

// mutationStep draws one random mutation batch against model (biased toward
// growth), in reproducible order.
func mutationStep(q cq.Query, model map[string]db.Fact, r *rand.Rand) (ins, del []db.Fact) {
	if r.Intn(3) > 0 || len(model) == 0 {
		for n := 1 + r.Intn(3); n > 0; n-- {
			ins = append(ins, randomFactFor(q, r))
		}
		return ins, del
	}
	ids := make([]string, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if r.Intn(3) == 0 {
			del = append(del, model[id])
		}
	}
	if len(del) == 0 {
		ins = append(ins, randomFactFor(q, r))
	}
	return ins, del
}

// TestDeltaResolveEquivalence is the delta re-solve differential property:
// a database grown through a random interleaving of durable inserts,
// deletes, and solves yields — via Plan.Resolve with a persistent shard
// memo — verdicts byte-identical to a from-scratch full re-solve of the
// surviving facts, across scenario families and every shard count under
// test. The memos live across all steps of a schedule, so stale reuse after
// any mutation pattern would surface as a divergence. (The interned=true
// prefix of the subtest names is the data plane the runs execute on.)
func TestDeltaResolveEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, sc := range deltaScenarios() {
		for seed := int64(0); seed < 2; seed++ {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("interned=true/%s/seed%d", sc.name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(9091 + seed*7717))
				st, err := wal.Open(wal.Options{
					Dir:      t.TempDir(),
					Fsync:    wal.FsyncNever,
					Registry: obs.NewRegistry(),
				})
				if err != nil {
					t.Fatalf("wal.Open: %v", err)
				}
				defer st.Close()

				p, err := CompilePlan(sc.q)
				if err != nil {
					t.Fatalf("CompilePlan: %v", err)
				}
				memos := make(map[int]*ShardMemo, len(deltaShardCounts()))
				for _, n := range deltaShardCounts() {
					memos[n] = NewShardMemo(0, nil)
				}

				model := map[string]db.Fact{}
				for step := 0; step < 10; step++ {
					ins, del := mutationStep(sc.q, model, r)
					if _, _, err := st.Mutate(ins, del, -1); err != nil {
						t.Fatalf("step %d: Mutate: %v", step, err)
					}
					for _, f := range del {
						delete(model, f.ID())
					}
					for _, f := range ins {
						model[f.ID()] = f
					}

					rebuilt := db.New()
					for _, f := range model {
						if err := rebuilt.Add(f); err != nil {
							t.Fatalf("rebuild add %v: %v", f, err)
						}
					}
					full, err := SolveCtx(ctx, sc.q, rebuilt, Options{})
					if err != nil {
						t.Fatalf("step %d: full re-solve: %v", step, err)
					}
					want := verdictFingerprint(t, full)

					durable, version := st.DB()
					delta := Delta{Ins: ins, Del: del}
					for _, n := range deltaShardCounts() {
						v, rep, err := p.Resolve(ctx, durable, delta, memos[n], n, Options{})
						if err != nil {
							t.Fatalf("step %d shards %d: Resolve: %v", step, n, err)
						}
						if got := verdictFingerprint(t, v); got != want {
							t.Errorf("step %d shards %d (version %d): delta verdict diverged\n got %s\nwant %s\nreport %+v",
								step, n, version, got, want, rep)
						}
					}
				}
			})
		}
	}
}

// chainGroupOps is the metamorphic schedule generator: mutations confined
// to never-certain chain groups. Group i always keeps both R choices
// {R(ai | bi), R(ai | xi)} with S facts only under bi, so no repair
// choosing xi can satisfy R(x|y),S(y|z) — every group, hence every shard,
// stays not-certain through the whole schedule. That determinism matters:
// a certain shard would cancel its component's remaining fan-out at a
// racy point, making the recomputed-shard count depend on scheduling
// rather than on content.
type chainGroupOps struct {
	q      cq.Query
	groups int
}

func (c *chainGroupOps) step(model map[string]db.Fact, r *rand.Rand) (ins, del []db.Fact) {
	i := r.Intn(c.groups)
	rFact := func(val string) db.Fact {
		return db.Fact{Rel: "R", KeyLen: 1, Args: []string{fmt.Sprintf("a%d", i), val}}
	}
	sFact := func(val string) db.Fact {
		return db.Fact{Rel: "S", KeyLen: 1, Args: []string{fmt.Sprintf("b%d", i), val}}
	}
	base := []db.Fact{rFact(fmt.Sprintf("b%d", i)), rFact(fmt.Sprintf("x%d", i))}
	switch r.Intn(3) {
	case 0: // (re)create the group's R backbone plus one S fact
		ins = append(ins, base...)
		ins = append(ins, sFact("c0"))
	case 1: // widen the group's S block
		ins = append(ins, base...)
		ins = append(ins, sFact(fmt.Sprintf("c%d", 1+r.Intn(3))))
	default: // shrink the S block (delete whatever S facts the model holds)
		for id, f := range model {
			if f.Rel == "S" && f.Args[0] == fmt.Sprintf("b%d", i) {
				del = append(del, model[id])
			}
		}
		sort.Slice(del, func(a, b int) bool { return del[a].ID() < del[b].ID() })
		if len(del) > 1 {
			del = del[:1]
		}
		if len(del) == 0 {
			ins = append(ins, base...)
		}
	}
	return ins, del
}

// TestDeltaResolveMetamorphic is the shuffle-invariance metamorphic
// property: running the same mutation schedule against (A) the durable
// store's snapshots and (B) databases rebuilt with component-preserving
// fact shuffles between mutations must produce identical delta verdicts
// AND the identical (reused, recomputed, invalidated) work partition at
// every step. Fingerprints are content-addressed over sorted block IDs, so
// the memo must neither miss a reuse nor fabricate one when facts arrive
// in a different order. maxShards exceeds every instance's group count,
// making the shard partition itself content-determined (the LPT packing
// never merges groups).
func TestDeltaResolveMetamorphic(t *testing.T) {
	ctx := context.Background()
	const maxShards = 1 << 10
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	gen := &chainGroupOps{q: q, groups: 5}

	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(313 + seed*7717))
			st, err := wal.Open(wal.Options{
				Dir:      t.TempDir(),
				Fsync:    wal.FsyncNever,
				Registry: obs.NewRegistry(),
			})
			if err != nil {
				t.Fatalf("wal.Open: %v", err)
			}
			defer st.Close()

			p, err := CompilePlan(q)
			if err != nil {
				t.Fatalf("CompilePlan: %v", err)
			}
			memoA := NewShardMemo(0, nil)
			memoB := NewShardMemo(0, nil)

			model := map[string]db.Fact{}
			shuffleRand := rand.New(rand.NewSource(seed * 101))
			totalReused := 0
			for step := 0; step < 12; step++ {
				ins, del := gen.step(model, r)
				if _, _, err := st.Mutate(ins, del, -1); err != nil {
					t.Fatalf("step %d: Mutate: %v", step, err)
				}
				for _, f := range del {
					delete(model, f.ID())
				}
				for _, f := range ins {
					model[f.ID()] = f
				}
				delta := Delta{Ins: ins, Del: del}

				durable, _ := st.DB()
				vA, repA, err := p.Resolve(ctx, durable, delta, memoA, maxShards, Options{})
				if err != nil {
					t.Fatalf("step %d: schedule A: %v", step, err)
				}

				// Schedule B sees the same facts in a shuffled insertion
				// order: a fresh database object each step, so every hit it
				// gets is purely content-addressed.
				perm := shuffled(t, durable, shuffleRand)
				vB, repB, err := p.Resolve(ctx, perm, delta, memoB, maxShards, Options{})
				if err != nil {
					t.Fatalf("step %d: schedule B: %v", step, err)
				}

				if got, want := verdictFingerprint(t, vB), verdictFingerprint(t, vA); got != want {
					t.Errorf("step %d: shuffled delta verdict diverged\n got %s\nwant %s", step, got, want)
				}
				if repA != repB {
					t.Errorf("step %d: work partition not shuffle-invariant: A=%+v B=%+v", step, repA, repB)
				}
				totalReused += repA.ShardsReused
			}
			// Inertness guard: a schedule of localized mutations over several
			// groups must reuse something (single-shard early steps bypass
			// the memo, but later multi-group steps cannot all miss).
			if totalReused == 0 {
				t.Error("no shard sub-verdict was reused across the whole schedule; the memo appears inert")
			}
		})
	}
}

// TestShardMemoInvalidationExcludesUntouched is the block-granularity
// regression lock: a mutation touching one block of relation R must never
// evict a memo entry for a shard whose fingerprint excludes that block —
// in particular, entries over OTHER blocks of R itself survive (the
// relation-granular eviction this design replaced would have dropped
// them).
func TestShardMemoInvalidationExcludesUntouched(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	// Three independent, never-certain chain groups: every shard is solved
	// (no disjunction short-circuit) and memoized.
	d := db.MustParse(`
		R(a1 | b1) R(a1 | z1) S(b1 | c1)
		R(a2 | b2) R(a2 | z2) S(b2 | c2)
		R(a3 | b3) R(a3 | z3) S(b3 | c3)
	`)
	p, err := CompilePlan(q)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	memo := NewShardMemo(0, nil)
	if _, rep, err := p.SolveShardedMemo(ctx, d, 1<<10, Options{}, memo); err != nil {
		t.Fatalf("SolveShardedMemo: %v", err)
	} else if rep.ShardsRecomputed != 3 {
		t.Fatalf("cold solve report = %+v, want 3 recomputed", rep)
	}
	if memo.Len() != 3 {
		t.Fatalf("memo has %d entries after sharded solve, want 3", memo.Len())
	}

	// Split every shard fingerprint by whether it covers the block the
	// mutation below touches (R's block a1).
	dec := shard.Decompose(q, d, 1<<10)
	touched := db.Fact{Rel: "R", KeyLen: 1, Args: []string{"a1", "b9"}}.BlockID()
	var covering, excluded []string
	for j := range dec.Components {
		for i, fp := range dec.ComponentFingerprints(d, j) {
			covers := false
			for _, bid := range dec.Blocks[j][i] {
				if bid == touched {
					covers = true
				}
			}
			if covers {
				covering = append(covering, fp)
			} else {
				excluded = append(excluded, fp)
			}
		}
	}
	if len(covering) != 1 || len(excluded) != 2 {
		t.Fatalf("bad topology: %d covering / %d excluded shards", len(covering), len(excluded))
	}
	for _, fp := range excluded {
		if !memo.Contains(fp) {
			t.Fatalf("pre-invalidate: excluded fingerprint %s not memoized", fp)
		}
	}

	removed := memo.Invalidate(Delta{Ins: []db.Fact{{Rel: "R", KeyLen: 1, Args: []string{"a1", "b9"}}}}.TouchedBlocks())
	if removed != 1 {
		t.Errorf("invalidation removed %d entries, want exactly the covering shard", removed)
	}
	for _, fp := range covering {
		if memo.Contains(fp) {
			t.Errorf("covering fingerprint survived invalidation of its block")
		}
	}
	for _, fp := range excluded {
		if !memo.Contains(fp) {
			t.Errorf("invalidating %s evicted a shard whose fingerprint excludes it", touched)
		}
	}
	if got := memo.Invalidations(); got != uint64(removed) {
		t.Errorf("Invalidations() = %d, want %d", got, removed)
	}
}

// TestResolveReusesAcrossMutations walks Resolve through a
// mutate → re-solve → undo cycle on four independent chain groups and pins
// the exact work partition at every step, including the content-addressing
// dividend: undoing a mutation restores the pre-mutation fingerprint, so
// the original memo entry (never invalidated — its fingerprint excludes
// the touched block) hits again and the undo re-solve recomputes nothing.
func TestResolveReusesAcrossMutations(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	// Four independent, not-certain chain groups (no OR short-circuit hides
	// reuse: every shard is accounted on every solve).
	d := db.MustParse(`
		R(a1 | b1) R(a1 | x1) S(b1 | c1)
		R(a2 | b2) R(a2 | x2) S(b2 | c2)
		R(a3 | b3) R(a3 | x3) S(b3 | c3)
		R(a4 | b4) R(a4 | x4) S(b4 | c4)
	`)
	p, err := CompilePlan(q)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	memo := NewShardMemo(0, nil)
	v0, rep0, err := p.Resolve(ctx, d, Delta{}, memo, 1<<10, Options{})
	if err != nil {
		t.Fatalf("initial Resolve: %v", err)
	}
	if v0.Outcome != OutcomeNotCertain {
		t.Fatalf("outcome = %v, want not-certain", v0.Outcome)
	}
	if rep0 != (DeltaReport{ShardsRecomputed: 4}) {
		t.Fatalf("cold report = %+v, want 0 reused / 4 recomputed", rep0)
	}

	// Mutate group 1 only: add the S fact that completes its chain (S gains
	// a new block x1, so no existing memo entry covers the touched block —
	// the group's fingerprint changes instead, which is what forces the
	// recompute).
	f := db.Fact{Rel: "S", KeyLen: 1, Args: []string{"x1", "c1"}}
	if err := d.Add(f); err != nil {
		t.Fatalf("Add: %v", err)
	}
	v1, rep1, err := p.Resolve(ctx, d, Delta{Ins: []db.Fact{f}}, memo, 1<<10, Options{})
	if err != nil {
		t.Fatalf("Resolve after mutation: %v", err)
	}
	// Group 1 is now certain, which settles the component's disjunction.
	if v1.Outcome != OutcomeCertain {
		t.Errorf("outcome after mutation = %v, want certain", v1.Outcome)
	}
	if rep1 != (DeltaReport{ShardsReused: 3, ShardsRecomputed: 1}) {
		t.Errorf("report = %+v, want 3 reused / 1 recomputed / 0 invalidated", rep1)
	}

	// Undo: the delete's block (S's x1) is covered by the certain entry
	// memoized above, which invalidation drops. Group 1's content — and so
	// its fingerprint — is back to the original, so the original
	// not-certain entry hits and nothing at all is recomputed.
	if !d.Remove(f) {
		t.Fatal("Remove: fact missing")
	}
	v2, rep2, err := p.Resolve(ctx, d, Delta{Del: []db.Fact{f}}, memo, 1<<10, Options{})
	if err != nil {
		t.Fatalf("Resolve after removal: %v", err)
	}
	if got, want := verdictFingerprint(t, v2), verdictFingerprint(t, v0); got != want {
		t.Errorf("verdict after undo diverged\n got %s\nwant %s", got, want)
	}
	if rep2 != (DeltaReport{ShardsReused: 4, Invalidated: 1}) {
		t.Errorf("report after undo = %+v, want 4 reused / 0 recomputed / 1 invalidated", rep2)
	}
}
