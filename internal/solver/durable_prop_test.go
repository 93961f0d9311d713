package solver

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/wal"
)

// TestDurableInterleavedSolveProperty is the durability/equivalence
// property: a database grown through an arbitrary interleaving of durable
// inserts and deletes (internal/wal, incremental per-relation indexes)
// yields byte-identical verdicts to a database rebuilt from scratch out
// of the surviving facts — across fact shuffles and every shard count
// under test. A divergence would mean the write path's incremental index
// maintenance (or the WAL's effective-fact normalization) changed an
// answer, which no amount of crash-safety could excuse.
func TestDurableInterleavedSolveProperty(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	queryRels := []string{"R", "S", "U"} // U is pure noise for the solver, but must still round-trip

	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(4242 + seed*7717))
			dir := t.TempDir()
			st, err := wal.Open(wal.Options{
				Dir:      dir,
				Fsync:    wal.FsyncNever, // equivalence is under test here, not crash-safety
				Registry: obs.NewRegistry(),
			})
			if err != nil {
				t.Fatalf("wal.Open: %v", err)
			}
			defer st.Close()

			// model mirrors what the store should contain, applied with
			// plain insert/delete set semantics.
			model := map[string]db.Fact{}
			randomFact := func() db.Fact {
				rel := queryRels[r.Intn(len(queryRels))]
				dom := func() string { return string(rune('a' + r.Intn(3))) }
				return db.Fact{Rel: rel, KeyLen: 1, Args: []string{dom(), dom()}}
			}

			for step := 0; step < 12; step++ {
				var ins, del []db.Fact
				if r.Intn(3) > 0 || len(model) == 0 { // bias toward growth
					for n := 1 + r.Intn(3); n > 0; n-- {
						ins = append(ins, randomFact())
					}
				} else {
					// Iterate in sorted-ID order so the random draws (and
					// so the whole script) are reproducible per seed.
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
						ins = append(ins, randomFact())
					}
				}
				if _, _, err := st.Mutate(ins, del, -1); err != nil {
					t.Fatalf("step %d: Mutate(ins=%v, del=%v): %v", step, ins, del, err)
				}
				for _, f := range del {
					delete(model, f.ID())
				}
				for _, f := range ins {
					model[f.ID()] = f
				}

				// Rebuild from scratch and require identical verdicts from
				// the durable snapshot at every shard count and shuffle.
				rebuilt := db.New()
				for _, f := range model {
					if err := rebuilt.Add(f); err != nil {
						t.Fatalf("rebuild add %v: %v", f, err)
					}
				}
				mono, err := SolveCtx(ctx, q, rebuilt, Options{})
				if err != nil {
					t.Fatalf("step %d: rebuilt solve: %v", step, err)
				}
				want := verdictFingerprint(t, mono)

				durable, version := st.DB()
				if durable.Len() != len(model) {
					t.Fatalf("step %d (version %d): durable has %d facts, model %d", step, version, durable.Len(), len(model))
				}
				v, err := SolveCtx(ctx, q, durable, Options{Sharded: true})
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if got := verdictFingerprint(t, v); got != want {
					t.Errorf("step %d (version %d):\n got %s\nwant %s", step, version, got, want)
				}
				perm := shuffled(t, durable, r)
				if v, err := SolveCtx(ctx, q, perm, Options{Sharded: true}); err != nil {
					t.Fatalf("step %d shuffled: %v", step, err)
				} else if got := verdictFingerprint(t, v); got != want {
					t.Errorf("step %d shuffled:\n got %s\nwant %s", step, got, want)
				}
			}

			// Reopen: recovery must reconstruct the exact same database.
			preVersion := st.Version()
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			st2, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever, Registry: obs.NewRegistry()})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer st2.Close()
			recovered, version := st2.DB()
			if version != preVersion {
				t.Fatalf("recovered version = %d, want %d", version, preVersion)
			}
			if recovered.Len() != len(model) {
				t.Fatalf("recovered %d facts, model %d", recovered.Len(), len(model))
			}
			v, err := SolveCtx(ctx, q, recovered, Options{Sharded: true})
			if err != nil {
				t.Fatalf("recovered solve: %v", err)
			}
			mono, err := func() (Verdict, error) {
				rebuilt := db.New()
				for _, f := range model {
					if err := rebuilt.Add(f); err != nil {
						return Verdict{}, err
					}
				}
				return SolveCtx(ctx, q, rebuilt, Options{})
			}()
			if err != nil {
				t.Fatalf("rebuilt solve: %v", err)
			}
			if got, want := verdictFingerprint(t, v), verdictFingerprint(t, mono); got != want {
				t.Errorf("recovered verdict:\n got %s\nwant %s", got, want)
			}
		})
	}
}
