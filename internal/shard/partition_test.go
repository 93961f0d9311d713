package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// sameDecomposition describes the first difference between two
// decompositions of the same content — components, their shard block lists
// in order, and the shard fingerprints against each side's database — or
// returns "" when they agree byte for byte.
func sameDecomposition(got *Decomposition, gotDB *db.DB, want *Decomposition, wantDB *db.DB) string {
	if fmt.Sprint(got.Components) != fmt.Sprint(want.Components) {
		return fmt.Sprintf("components %v, want %v", got.Components, want.Components)
	}
	if !reflect.DeepEqual(got.Blocks, want.Blocks) {
		return fmt.Sprintf("blocks %v, want %v", got.Blocks, want.Blocks)
	}
	for j := range want.Components {
		g, w := got.ComponentFingerprints(gotDB, j), want.ComponentFingerprints(wantDB, j)
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("component %d fingerprints %v, want %v", j, g, w)
		}
	}
	return ""
}

// FuzzPartitionSync fuzzes the maintained partition against fresh builds.
// The payload decodes into facts (factsFromBytes); each one is deleted when
// the database holds it and inserted otherwise. After every operation a
// partition synced through the whole history must decompose the database
// exactly as a fresh partition does, and a fresh build of a shuffled copy
// of the database must agree too, at the finest partition and under a
// shard cap. The two queries cover a plain join chain beside a second
// component and a self-joining component.
func FuzzPartitionSync(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 3, 3, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 1, 2, 3, 2, 4, 0, 0, 1, 1, 0, 1, 2})
	f.Add([]byte("R(a|b) S(b|c) fuzz me harder, then undo it"))
	f.Add([]byte{255, 255, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 128, 64, 32})
	queries := []cq.Query{fuzzQuery(), cq.MustParseQuery("R(x | y), R(y | z), U(u | v)")}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := factsFromBytes(data)
		if len(ops) == 0 {
			t.Skip("payload too short for a fact")
		}
		d := db.New()
		parts := make([]*Partition, len(queries))
		for i, q := range queries {
			parts[i] = NewPartition(q)
		}
		r := rand.New(rand.NewSource(int64(len(data))))
		for step, op := range ops {
			if d.Has(op) {
				d.Remove(op)
			} else if err := d.Add(op); err != nil {
				t.Fatalf("step %d: Add %v: %v", step, op, err)
			}
			facts := append([]db.Fact(nil), d.Facts()...)
			r.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
			shuffled := buildDB(t, facts)
			for i, q := range queries {
				for _, maxShards := range []int{0, 2} {
					kept, _ := parts[i].Sync(d, maxShards)
					fresh := Decompose(q, d, maxShards)
					if diff := sameDecomposition(kept, d, fresh, d); diff != "" {
						t.Fatalf("step %d, %v, maxShards=%d: synced partition differs from a fresh one: %s", step, q, maxShards, diff)
					}
					if diff := sameDecomposition(Decompose(q, shuffled, maxShards), shuffled, fresh, d); diff != "" {
						t.Fatalf("step %d, %v, maxShards=%d: shuffled copy decomposes differently: %s", step, q, maxShards, diff)
					}
				}
			}
		}
	})
}

// TestPartitionSyncStats pins the accounting Sync reports: a fresh build
// touches every block and rebuilds every component, a sync to unchanged
// content touches nothing, and a one-block write rebuilds only the
// component holding that block.
func TestPartitionSyncStats(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	d := db.MustParse(`
		R(a1 | b1) S(b1 | c1)
		R(a2 | b2) S(b2 | c2)
		R(a3 | b3) S(b3 | c3)
	`)
	add := func(f db.Fact) {
		if err := d.Add(f); err != nil {
			t.Fatalf("Add %v: %v", f, err)
		}
	}
	pt := NewPartition(q)
	steps := []struct {
		name string
		edit func()
		want SyncStats
	}{
		{"fresh", func() {}, SyncStats{Touched: 6, Rebuilt: 3, Components: 3}},
		{"unchanged", func() {}, SyncStats{Components: 3}},
		{"one block", func() { add(db.Fact{Rel: "S", KeyLen: 1, Args: []string{"b2", "c9"}}) }, SyncStats{Touched: 1, Rebuilt: 1, Components: 3}},
		{"bridge", func() { add(db.Fact{Rel: "R", KeyLen: 1, Args: []string{"a1", "b3"}}) }, SyncStats{Touched: 1, Rebuilt: 1, Components: 2}},
		{"unbridge", func() { d.Remove(db.Fact{Rel: "R", KeyLen: 1, Args: []string{"a1", "b3"}}) }, SyncStats{Touched: 1, Rebuilt: 2, Components: 3}},
		{"vanish", func() { d.RemoveBlock(db.Fact{Rel: "S", KeyLen: 1, Args: []string{"b1", "c1"}}) }, SyncStats{Touched: 1, Rebuilt: 1, Components: 3}},
	}
	for _, s := range steps {
		s.edit()
		dec, got := pt.Sync(d, 0)
		if got != s.want {
			t.Errorf("%s: stats %+v, want %+v", s.name, got, s.want)
		}
		if diff := sameDecomposition(dec, d, Decompose(q, d, 0), d); diff != "" {
			t.Errorf("%s: %s", s.name, diff)
		}
	}
}
