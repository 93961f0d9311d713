package solver

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/shard"
	"github.com/cqa-go/certainty/internal/wal"
)

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
// deletes, and solves yields — via SolveShardedMemo with a persistent shard
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
				memo := NewShardMemo(0, nil)

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
					v, rep, err := p.SolveShardedMemo(ctx, durable, Options{}, memo)
					if err != nil {
						t.Fatalf("step %d: SolveShardedMemo: %v", step, err)
					}
					if got := verdictFingerprint(t, v); got != want {
						t.Errorf("step %d (version %d): delta verdict diverged\n got %s\nwant %s\nreport %+v",
							step, version, got, want, rep)
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
// AND the identical (reused, recomputed) work partition at every step. Fingerprints are content-addressed over sorted block IDs, so
// the memo must neither miss a reuse nor fabricate one when facts arrive
// in a different order.
func TestDeltaResolveMetamorphic(t *testing.T) {
	ctx := context.Background()
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
				durable, _ := st.DB()
				vA, repA, err := p.SolveShardedMemo(ctx, durable, Options{}, memoA)
				if err != nil {
					t.Fatalf("step %d: schedule A: %v", step, err)
				}

				// Schedule B sees the same facts in a shuffled insertion
				// order: a fresh database object each step, so every hit it
				// gets is purely content-addressed.
				perm := shuffled(t, durable, shuffleRand)
				vB, repB, err := p.SolveShardedMemo(ctx, perm, Options{}, memoB)
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
// regression lock: a mutation touching one block of relation R changes only
// the fingerprint of the shard covering that block, so that shard alone is
// recomputed, and every memo entry for a shard whose fingerprint excludes
// the block — in particular those over OTHER blocks of R itself — stays
// memoized and reused. Nothing removes the covering shard's old entry
// either: only the LRU bound does, so an undo would hit it.
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
	if _, rep, err := p.SolveShardedMemo(ctx, d, Options{}, memo); err != nil {
		t.Fatalf("SolveShardedMemo: %v", err)
	} else if rep.ShardsRecomputed != 3 {
		t.Fatalf("cold solve report = %+v, want 3 recomputed", rep)
	}
	if memo.Len() != 3 {
		t.Fatalf("memo has %d entries after sharded solve, want 3", memo.Len())
	}

	// Split every shard fingerprint by whether it covers the block the
	// mutation below touches (R's block a1).
	dec := shard.Decompose(q, d)
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
			t.Fatalf("before the mutation: excluded fingerprint %s not memoized", fp)
		}
	}

	next := d.Clone()
	if err := next.Add(db.Fact{Rel: "R", KeyLen: 1, Args: []string{"a1", "b9"}}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, rep, err := p.SolveShardedMemo(ctx, next, Options{}, memo); err != nil {
		t.Fatalf("SolveShardedMemo after the mutation: %v", err)
	} else if rep != (DeltaReport{ShardsReused: 2, ShardsRecomputed: 1}) {
		t.Errorf("re-solve report = %+v, want the 2 excluded shards reused and the covering one recomputed", rep)
	}
	for _, fp := range excluded {
		if !memo.Contains(fp) {
			t.Errorf("mutating %s dropped a shard whose fingerprint excludes it", touched)
		}
	}
	for _, fp := range covering {
		if !memo.Contains(fp) {
			t.Error("the covering shard's entry for its old content was dropped")
		}
	}
	if memo.Len() != 4 {
		t.Errorf("memo has %d entries, want 4: the three first ones and the covering shard's new content", memo.Len())
	}
}

// TestResolveReusesAcrossMutations walks a memoized re-solve through a
// mutate → re-solve → undo cycle on four independent chain groups and pins
// the exact work partition at every step, including the content-addressing
// dividend: undoing a mutation restores the pre-mutation fingerprint, so
// the original memo entry hits again and the undo re-solve recomputes
// nothing.
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
	v0, rep0, err := p.SolveShardedMemo(ctx, d, Options{}, memo)
	if err != nil {
		t.Fatalf("initial SolveShardedMemo: %v", err)
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
	v1, rep1, err := p.SolveShardedMemo(ctx, d, Options{}, memo)
	if err != nil {
		t.Fatalf("SolveShardedMemo after mutation: %v", err)
	}
	// Group 1 is now certain, which settles the component's disjunction.
	if v1.Outcome != OutcomeCertain {
		t.Errorf("outcome after mutation = %v, want certain", v1.Outcome)
	}
	if rep1 != (DeltaReport{ShardsReused: 3, ShardsRecomputed: 1}) {
		t.Errorf("report = %+v, want 3 reused / 1 recomputed", rep1)
	}

	// Undo: group 1's content — and so its fingerprint — is back to the
	// original, so the original not-certain entry hits and nothing at all
	// is recomputed.
	if !d.Remove(f) {
		t.Fatal("Remove: fact missing")
	}
	v2, rep2, err := p.SolveShardedMemo(ctx, d, Options{}, memo)
	if err != nil {
		t.Fatalf("SolveShardedMemo after removal: %v", err)
	}
	if got, want := verdictFingerprint(t, v2), verdictFingerprint(t, v0); got != want {
		t.Errorf("verdict after undo diverged\n got %s\nwant %s", got, want)
	}
	if rep2 != (DeltaReport{ShardsReused: 4}) {
		t.Errorf("report after undo = %+v, want 4 reused / 0 recomputed", rep2)
	}
}

// sameDecomposition describes the first difference between two
// decompositions of the same database — components, their shard block
// lists in order, and the shard fingerprints — or returns "" when they
// agree byte for byte.
func sameDecomposition(got, want *shard.Decomposition, d *db.DB) string {
	if fmt.Sprint(got.Components) != fmt.Sprint(want.Components) {
		return fmt.Sprintf("components %v, want %v", got.Components, want.Components)
	}
	if !reflect.DeepEqual(got.Blocks, want.Blocks) {
		return fmt.Sprintf("blocks %v, want %v", got.Blocks, want.Blocks)
	}
	for j := range want.Components {
		g, w := got.ComponentFingerprints(d, j), want.ComponentFingerprints(d, j)
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("component %d fingerprints %v, want %v", j, g, w)
		}
	}
	return ""
}

// TestDeltaPartitionMatchesFresh is the maintained-partition differential
// property: random mutation schedules run through the durable store, and
// long-lived partitions are synced to every published snapshot, to every
// second snapshot (skipping versions), to an older snapshot right after a
// newer one, and to a single database mutated in place. After every sync
// the decomposition — components, block lists and their order, shard
// fingerprints — equals a fresh shard.Decompose of the same database.
func TestDeltaPartitionMatchesFresh(t *testing.T) {
	scenarios := append(deltaScenarios(), struct {
		name string
		q    cq.Query
	}{"self-join", cq.MustParseQuery("R(x | y), R(y | z), S(z | w)")})
	for _, sc := range scenarios {
		for seed := int64(0); seed < 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(4243 + seed*7717))
				st, err := wal.Open(wal.Options{
					Dir:      t.TempDir(),
					Fsync:    wal.FsyncNever,
					Registry: obs.NewRegistry(),
				})
				if err != nil {
					t.Fatalf("wal.Open: %v", err)
				}
				defer st.Close()

				every := shard.NewPartition(sc.q)
				skipping := shard.NewPartition(sc.q)
				backward := shard.NewPartition(sc.q)
				inPlace := shard.NewPartition(sc.q)
				mutated := db.New()
				check := func(step int, how string, pt *shard.Partition, d *db.DB) {
					t.Helper()
					got, _ := pt.Sync(d)
					if diff := sameDecomposition(got, shard.Decompose(sc.q, d), d); diff != "" {
						t.Fatalf("step %d, %s: %s", step, how, diff)
					}
				}

				var snaps []*db.DB
				model := map[string]db.Fact{}
				for step := 0; step < 14; step++ {
					ins, del := mutationStep(sc.q, model, r)
					if _, _, err := st.Mutate(ins, del, -1); err != nil {
						t.Fatalf("step %d: Mutate: %v", step, err)
					}
					for _, f := range del {
						delete(model, f.ID())
						mutated.Remove(f)
					}
					for _, f := range ins {
						model[f.ID()] = f
						if err := mutated.Add(f); err != nil {
							t.Fatalf("step %d: in-place Add %v: %v", step, f, err)
						}
					}
					snap, _ := st.DB()
					if !mutated.Equal(snap) {
						t.Fatalf("step %d: in-place database diverged from the store", step)
					}
					snaps = append(snaps, snap)

					check(step, "every snapshot", every, snap)
					if step%2 == 1 {
						check(step, "every second snapshot", skipping, snap)
					}
					check(step, "newest snapshot", backward, snap)
					if step >= 2 {
						check(step, "older snapshot after a newer one", backward, snaps[step-2])
					}
					check(step, "in place", inPlace, mutated)
				}
			})
		}
	}
}

// TestShardMemoBoundsPartitions: the partitions the memo keeps count
// against its capacity in components. The least recently synced partition
// is evicted first, a partition larger than the capacity is not kept, and
// the verdict-entry count is unaffected by either.
func TestShardMemoBoundsPartitions(t *testing.T) {
	ctx := context.Background()
	var text strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&text, "R(a%d | b%d) R(a%d | x%d) S(b%d | c%d)\n", i, i, i, i, i, i)
		fmt.Fprintf(&text, "T(a%d | b%d) T(a%d | x%d) U(b%d | c%d)\n", i, i, i, i, i, i)
		fmt.Fprintf(&text, "X(a%d | b%d) X(a%d | x%d) Y(b%d | c%d)\n", i, i, i, i, i, i)
	}
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&text, "V(a%d | b%d) V(a%d | x%d) W(b%d | c%d)\n", i, i, i, i, i, i)
	}
	d := db.MustParse(text.String())
	solve := func(memo *ShardMemo, q string) {
		t.Helper()
		p, err := CompilePlan(cq.MustParseQuery(q))
		if err != nil {
			t.Fatalf("CompilePlan %s: %v", q, err)
		}
		if _, _, err := p.SolveShardedMemo(ctx, d, Options{}, memo); err != nil {
			t.Fatalf("SolveShardedMemo %s: %v", q, err)
		}
	}
	kept := func(memo *ShardMemo) (int, int) {
		memo.mu.Lock()
		defer memo.mu.Unlock()
		return len(memo.parts), memo.partComps
	}

	memo := NewShardMemo(10, nil)
	solve(memo, "R(x | y), S(y | z)")
	solve(memo, "T(x | y), U(y | z)")
	if n, comps := kept(memo); n != 2 || comps != 10 {
		t.Fatalf("two 5-component partitions: kept %d holding %d components, want 2 holding 10", n, comps)
	}
	solve(memo, "R(x | y), S(y | z)") // R–S is now the most recently synced
	solve(memo, "X(x | y), Y(y | z)") // a third 5-component partition: evicts T–U
	if n, comps := kept(memo); n != 2 || comps != 10 {
		t.Fatalf("after a third plan: kept %d holding %d components, want 2 holding 10", n, comps)
	}
	memo.mu.Lock()
	_, rs := memo.parts[cq.CanonicalKey(cq.MustParseQuery("R(x | y), S(y | z)"))]
	_, tu := memo.parts[cq.CanonicalKey(cq.MustParseQuery("T(x | y), U(y | z)"))]
	memo.mu.Unlock()
	if !rs || tu {
		t.Errorf("kept R–S %v, T–U %v; want the least recently synced T–U evicted", rs, tu)
	}
	solve(memo, "V(x | y), W(y | z)") // 12 components: over the capacity, never kept
	if n, comps := kept(memo); n != 2 || comps != 10 {
		t.Errorf("after an oversized partition: kept %d holding %d components, want 2 holding 10", n, comps)
	}
	if got := memo.Len(); got != 10 {
		t.Errorf("memo.Len() = %d, want the 10 verdict entries the capacity holds", got)
	}
}

// TestDeltaPartitionConcurrentSnapshots: concurrent memoized solves of
// different versions share the memo's one kept partition, as concurrent
// hosted reads of older and newer snapshots do. Every verdict equals a
// memo-less solve of its own snapshot.
func TestDeltaPartitionConcurrentSnapshots(t *testing.T) {
	ctx := context.Background()
	p, err := CompilePlan(cq.MustParseQuery("R(x | y), S(y | z)"))
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&text, "R(a%d | b%d) R(a%d | x%d) S(b%d | c%d)\n", i, i, i, i, i, i)
	}
	snaps := []*db.DB{db.MustParse(text.String())}
	for k := 0; k < 12; k++ {
		next := snaps[len(snaps)-1].Clone()
		// Completing group k%8's second chain makes the version certain;
		// the next edit to that group undoes it.
		f := db.Fact{Rel: "S", KeyLen: 1, Args: []string{fmt.Sprintf("x%d", k%8), "c"}}
		if next.Has(f) {
			next.Remove(f)
		} else if err := next.Add(f); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, next)
	}
	want := make([]string, len(snaps))
	for k, d := range snaps {
		v, err := p.SolveCtx(ctx, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = verdictFingerprint(t, v)
	}

	memo := NewShardMemo(0, nil)
	const workers, rounds = 4, 24
	got := make([][]Verdict, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v, _, err := p.SolveShardedMemo(ctx, snaps[(g*5+i*7)%len(snaps)], Options{}, memo)
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], v)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < workers; g++ {
		if errs[g] != nil {
			t.Fatalf("worker %d: %v", g, errs[g])
		}
		for i, v := range got[g] {
			k := (g*5 + i*7) % len(snaps)
			if fp := verdictFingerprint(t, v); fp != want[k] {
				t.Errorf("worker %d round %d (version %d): got %s, want %s", g, i, k, fp, want[k])
			}
		}
	}
}

// TestResolveKeptCertainSettles: once the kept partition holds a certain
// component, a re-solve after a write elsewhere is settled by it — one
// reuse, nothing fingerprinted or solved — and a write that dissolves that
// component brings the solve back to the memo and the fan-out.
func TestResolveKeptCertainSettles(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	// Group 1 is certain; groups 2 to 4 are not.
	d := db.MustParse(`
		R(a1 | b1) S(b1 | c1)
		R(a2 | b2) R(a2 | x2) S(b2 | c2)
		R(a3 | b3) R(a3 | x3) S(b3 | c3)
		R(a4 | b4) R(a4 | x4) S(b4 | c4)
	`)
	p, err := CompilePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewShardMemo(0, nil)
	if v, _, err := p.SolveShardedMemo(ctx, d, Options{}, memo); err != nil || v.Outcome != OutcomeCertain {
		t.Fatalf("cold solve: %v, %v; want certain", v.Outcome, err)
	}
	step := func(f db.Fact, outcome Outcome) DeltaReport {
		t.Helper()
		next := d.Clone()
		if next.Has(f) {
			next.Remove(f)
		} else if err := next.Add(f); err != nil {
			t.Fatal(err)
		}
		d = next
		v, rep, err := p.SolveShardedMemo(ctx, d, Options{}, memo)
		if err != nil {
			t.Fatal(err)
		}
		if v.Outcome != outcome {
			t.Fatalf("after %v: outcome %v, want %v", f, v.Outcome, outcome)
		}
		return rep
	}
	if rep := step(db.Fact{Rel: "S", KeyLen: 1, Args: []string{"b2", "c9"}}, OutcomeCertain); rep != (DeltaReport{ShardsReused: 1}) {
		t.Errorf("write to group 2: report %+v, want 1 reused (the kept certain group)", rep)
	}
	// R(a1 | x1) makes group 1 not certain. Its component and group 2's are
	// new; groups 3 and 4 are kept or memoized if the cold fan-out solved
	// them before the certain group cancelled it.
	if rep := step(db.Fact{Rel: "R", KeyLen: 1, Args: []string{"a1", "x1"}}, OutcomeNotCertain); rep.ShardsReused+rep.ShardsRecomputed != 4 || rep.ShardsRecomputed < 2 {
		t.Errorf("break group 1: report %+v, want 4 shards with at least 2 recomputed", rep)
	}
	// Every component now has a kept outcome.
	if rep := step(db.Fact{Rel: "S", KeyLen: 1, Args: []string{"b3", "c9"}}, OutcomeNotCertain); rep != (DeltaReport{ShardsReused: 3, ShardsRecomputed: 1}) {
		t.Errorf("write to group 3: report %+v, want 3 reused and 1 recomputed", rep)
	}
}
