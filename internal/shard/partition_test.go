package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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
// The payload decodes into facts (factsFromBytes), and the high bits of
// each fact's relation byte pick what the step does with it: toggle it in
// place (the database holds it: delete, otherwise insert), toggle it on a
// clone as the WAL store's commits do, sync an older clone after the newer
// database, or toggle it more often than a relation's change log holds
// before the next sync. After every step a partition synced through the
// whole history must decompose its target exactly as a fresh partition
// does, a fresh build of a shuffled copy of the database must agree too,
// and the outcomes the partition keeps must add up to those of a fresh fan-out. Outcomes are
// recorded one step late, as a solve of an older version that finishes
// after a newer sync records them. The two queries cover a plain join
// chain beside a second component and a self-joining component.
func FuzzPartitionSync(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 3, 3, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 1, 2, 3, 2, 4, 0, 0, 1, 1, 0, 1, 2})
	f.Add([]byte("R(a|b) S(b|c) fuzz me harder, then undo it"))
	f.Add([]byte{255, 255, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 128, 64, 32})
	f.Add([]byte{6, 0, 1, 7, 1, 2, 8, 2, 3, 9, 0, 0, 12, 1, 1, 6, 3, 4, 10, 4, 0})
	queries := []cq.Query{fuzzQuery(), cq.MustParseQuery("R(x | y), R(y | z), U(u | v)")}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := factsFromBytes(data)
		if len(ops) == 0 {
			t.Skip("payload too short for a fact")
		}
		d := db.New()
		var older []*db.DB // databases replaced by a clone; never mutated again
		parts := make([]*Partition, len(queries))
		for i, q := range queries {
			parts[i] = NewPartition(q)
		}
		late := make([]func(), len(queries)) // records the last step's outcomes
		toggle := func(op db.Fact) {
			if d.Has(op) {
				d.Remove(op)
			} else if err := d.Add(op); err != nil {
				t.Fatalf("Add %v: %v", op, err)
			}
		}
		r := rand.New(rand.NewSource(int64(len(data))))
		for step, op := range ops {
			target := d
			switch kind := data[3*step] / 3 % 5; kind {
			case 2: // a store-style write: mutate a clone
				older = append(older, d)
				d = d.Clone()
				toggle(op)
				target = d
			case 3: // an older snapshot after the newer database
				if len(older) > 0 {
					target = older[int(data[3*step+1])%len(older)]
				}
			case 4: // more mutations than the change log holds
				for n := 0; n <= db.ChangeLogLen; n++ {
					toggle(op)
				}
			default:
				toggle(op)
			}
			if target == d {
				facts := append([]db.Fact(nil), d.Facts()...)
				r.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
				shuffled := buildDB(t, facts)
				for _, q := range queries {
					if diff := sameDecomposition(Decompose(q, shuffled), shuffled, Decompose(q, d), d); diff != "" {
						t.Fatalf("step %d, %v: shuffled copy decomposes differently: %s", step, q, diff)
					}
				}
			}
			for i, q := range queries {
				kept, _ := parts[i].Sync(target)
				if diff := sameDecomposition(kept, target, Decompose(q, target), target); diff != "" {
					t.Fatalf("step %d, %v: synced partition differs from a fresh one: %s", step, q, diff)
				}
				record, diff := sameOutcomes(parts[i], q, target)
				if diff != "" {
					t.Fatalf("step %d, %v: %s", step, q, diff)
				}
				if late[i] != nil {
					late[i]()
				}
				late[i] = record
			}
		}
	})
}

// fakeCertain is the outcome the partition tests keep for a shard: a pure
// function of its content, through its fingerprint.
func fakeCertain(fp string) bool { return fp[0] < '8' }

// sameOutcomes syncs pt to d with SyncOpen and checks that its kept
// counts plus the outcomes of the shards it lists add up, per query
// component, to a fresh fan-out over every shard of d. It returns a
// function recording the listed shards' outcomes, and the first
// difference, or "".
func sameOutcomes(pt *Partition, q cq.Query, d *db.DB) (record func(), diff string) {
	open, _ := pt.SyncOpen(d)
	record = func() {
		for j := range open.Components {
			for i, fp := range open.ComponentFingerprints(d, j) {
				open.Record(j, i, fakeCertain(fp))
			}
		}
	}
	fresh := Decompose(q, d)
	for j := range fresh.Components {
		want := 0
		for _, fp := range fresh.ComponentFingerprints(d, j) {
			if fakeCertain(fp) {
				want++
			}
		}
		decided, certain := open.Kept(j)
		fps := open.ComponentFingerprints(d, j)
		for _, fp := range fps {
			if fakeCertain(fp) {
				certain++
			}
		}
		if decided+len(fps) != len(fresh.Blocks[j]) || certain != want {
			return record, fmt.Sprintf("component %d: %d kept + %d listed shards with %d certain, want %d shards with %d certain",
				j, decided, len(fps), certain, len(fresh.Blocks[j]), want)
		}
	}
	return record, ""
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
		{"fresh", func() {}, SyncStats{Touched: 6, Rebuilt: 3, Components: 3, Rescanned: 2}},
		{"unchanged", func() {}, SyncStats{Components: 3}},
		{"one block", func() { add(db.Fact{Rel: "S", KeyLen: 1, Args: []string{"b2", "c9"}}) }, SyncStats{Touched: 1, Rebuilt: 1, Components: 3}},
		{"bridge", func() { add(db.Fact{Rel: "R", KeyLen: 1, Args: []string{"a1", "b3"}}) }, SyncStats{Touched: 1, Rebuilt: 1, Components: 2}},
		{"unbridge", func() { d.Remove(db.Fact{Rel: "R", KeyLen: 1, Args: []string{"a1", "b3"}}) }, SyncStats{Touched: 1, Rebuilt: 2, Components: 3}},
		{"vanish", func() { d.RemoveBlock(db.Fact{Rel: "S", KeyLen: 1, Args: []string{"b1", "c1"}}) }, SyncStats{Touched: 1, Rebuilt: 1, Components: 3}},
	}
	for _, s := range steps {
		s.edit()
		dec, got := pt.Sync(d)
		if got != s.want {
			t.Errorf("%s: stats %+v, want %+v", s.name, got, s.want)
		}
		if diff := sameDecomposition(dec, d, Decompose(q, d), d); diff != "" {
			t.Errorf("%s: %s", s.name, diff)
		}
	}
}

// TestDeltaPartitionSyncTakesLogPath: a partition synced after every write of a
// store-style clone chain finds the changed blocks through the change log
// every time, and never diffs a relation in full, whether a write touches
// one relation of the query, several, or one outside it. A broken log
// cannot hide behind the full-diff fallback here: Rescanned counts every
// fallback. The decompositions still equal fresh ones.
func TestDeltaPartitionSyncTakesLogPath(t *testing.T) {
	q := fuzzQuery()
	var text strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&text, "R(a%d | b%d) R(a%d | x%d) S(b%d | c%d) U(u%d | w%d)\n", i, i, i, i, i, i, i, i)
	}
	d := db.MustParse(text.String() + "V(k | v)")
	pt := NewPartition(q)
	if _, st := pt.SyncOpen(d); st.Rescanned != 3 {
		t.Fatalf("first sync rescanned %d relations, want R, S and U", st.Rescanned)
	}
	r := rand.New(rand.NewSource(7))
	for step := 0; step < 3*db.ChangeLogLen; step++ {
		next := d.Clone()
		for n := 1 + r.Intn(3); n > 0; n-- {
			f := db.Fact{Rel: []string{"R", "S", "U", "V"}[r.Intn(4)], KeyLen: 1,
				Args: []string{fmt.Sprintf("a%d", r.Intn(20)), fmt.Sprintf("t%d", r.Intn(3))}}
			if next.Has(f) {
				next.Remove(f)
			} else if err := next.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		d = next
		dec, st := pt.Sync(d)
		if st.Rescanned != 0 {
			t.Fatalf("step %d: sync after one write rescanned %d relations, want the log path", step, st.Rescanned)
		}
		if diff := sameDecomposition(dec, d, Decompose(q, d), d); diff != "" {
			t.Fatalf("step %d: %s", step, diff)
		}
	}
}
