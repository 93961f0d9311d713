package db

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestDigestOfUnit pins the composed-digest contract the serving layer's
// verdict cache depends on: relation-scoped, order-independent,
// duplicate-insensitive, and distinguishing "relation absent" from
// "relation ignored".
func TestDigestOfUnit(t *testing.T) {
	d := MustParse("R(a | b) R(a | c) S(s | u)")

	if got, want := d.DigestOf([]string{"R", "S"}), d.DigestOf([]string{"S", "R"}); got != want {
		t.Errorf("DigestOf is order-dependent: %q vs %q", got, want)
	}
	if got, want := d.DigestOf([]string{"R", "R", "S"}), d.DigestOf([]string{"R", "S"}); got != want {
		t.Errorf("DigestOf counts duplicates: %q vs %q", got, want)
	}
	if got, want := d.DigestOf([]string{"R"}), d.DigestOf([]string{"S"}); got == want {
		t.Errorf("DigestOf(R) == DigestOf(S) = %q; different relations must differ", got)
	}
	// A relation the db has never seen must still mark its absence: a
	// query over {R, X} cannot share a cache entry with one over {R}.
	if got, want := d.DigestOf([]string{"R", "X"}), d.DigestOf([]string{"R"}); got == want {
		t.Errorf("DigestOf ignores absent relations: %q", got)
	}
	// Two different absent relations are also distinct subsets.
	if got, want := d.DigestOf([]string{"X"}), d.DigestOf([]string{"Y"}); got == want {
		t.Errorf("DigestOf(X) == DigestOf(Y) = %q for absent X, Y", got)
	}

	// Mutating S moves DigestOf(S) and DigestOf(R, S) but not DigestOf(R).
	onlyR, both := d.DigestOf([]string{"R"}), d.DigestOf([]string{"R", "S"})
	if err := d.Add(Fact{Rel: "S", KeyLen: 1, Args: []string{"s2", "u2"}}); err != nil {
		t.Fatal(err)
	}
	if got := d.DigestOf([]string{"R"}); got != onlyR {
		t.Errorf("DigestOf(R) moved on an S-only mutation: %q -> %q", onlyR, got)
	}
	if got := d.DigestOf([]string{"R", "S"}); got == both {
		t.Errorf("DigestOf(R, S) did not move on an S mutation: %q", got)
	}
}

// TestIncrementalIndexMatchesRebuilt is the differential guard for the
// copy-on-write index maintenance: a database mutated in place (Add and
// Remove in random interleavings) must be indistinguishable — facts,
// blocks, postings, and every digest flavor — from one rebuilt from
// scratch out of its surviving facts.
func TestIncrementalIndexMatchesRebuilt(t *testing.T) {
	rels := []string{"R", "S", "U"}
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(9001 + seed))
		d := New()
		model := map[string]Fact{}

		randomFact := func() Fact {
			v := func() string { return fmt.Sprintf("v%d", r.Intn(4)) }
			return Fact{Rel: rels[r.Intn(len(rels))], KeyLen: 1, Args: []string{v(), v()}}
		}

		for step := 0; step < 40; step++ {
			if r.Intn(3) > 0 || len(model) == 0 {
				f := randomFact()
				if _, dup := model[f.ID()]; dup {
					continue
				}
				if err := d.Add(f); err != nil {
					t.Fatalf("seed %d step %d: Add(%v): %v", seed, step, f, err)
				}
				model[f.ID()] = f
			} else {
				ids := make([]string, 0, len(model))
				for id := range model {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				f := model[ids[r.Intn(len(ids))]]
				if !d.Remove(f) {
					t.Fatalf("seed %d step %d: Remove(%v) = false for a present fact", seed, step, f)
				}
				delete(model, f.ID())
			}

			rebuilt := New()
			ids := make([]string, 0, len(model))
			for id := range model {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				if err := rebuilt.Add(model[id]); err != nil {
					t.Fatalf("rebuild: %v", err)
				}
			}

			if !d.Equal(rebuilt) {
				t.Fatalf("seed %d step %d: incremental db != rebuilt db\nincremental: %s\nrebuilt: %s",
					seed, step, d, rebuilt)
			}
			if got, want := d.Digest(), rebuilt.Digest(); got != want {
				t.Fatalf("seed %d step %d: Digest %q != rebuilt %q", seed, step, got, want)
			}
			for _, rel := range rels {
				if got, want := d.RelationDigest(rel), rebuilt.RelationDigest(rel); got != want {
					t.Fatalf("seed %d step %d: RelationDigest(%s) %q != rebuilt %q", seed, step, rel, got, want)
				}
				if got, want := len(d.FactsOf(rel)), len(rebuilt.FactsOf(rel)); got != want {
					t.Fatalf("seed %d step %d: %s has %d facts != rebuilt %d", seed, step, rel, got, want)
				}
				if got, want := numBlocks(d, rel), numBlocks(rebuilt, rel); got != want {
					t.Fatalf("seed %d step %d: %s has %d blocks != rebuilt %d", seed, step, rel, got, want)
				}
			}
			if got, want := d.DigestOf(rels), rebuilt.DigestOf(rels); got != want {
				t.Fatalf("seed %d step %d: DigestOf %q != rebuilt %q", seed, step, got, want)
			}
			// Postings spot check: every surviving fact is findable by
			// (rel, position, value) in both.
			for _, id := range ids {
				f := model[id]
				for pos, val := range f.Args {
					got := postingLen(d, f.Rel, pos, val)
					want := postingLen(rebuilt, f.Rel, pos, val)
					if got != want {
						t.Fatalf("seed %d step %d: Posting(%s, %d, %s) = %d facts, rebuilt %d",
							seed, step, f.Rel, pos, val, got, want)
					}
				}
			}
			if !reflect.DeepEqual(d.Relations(), rebuilt.Relations()) {
				t.Fatalf("seed %d step %d: Relations %v != rebuilt %v", seed, step, d.Relations(), rebuilt.Relations())
			}
		}
	}
}

// TestCloneChainDigestsMatchFreshParse is the copy-on-write sibling of
// TestIncrementalIndexMatchesRebuilt: a chain of clones, each mutated
// once or a few times as the WAL store's commits do, with a sibling clone
// of the same parent mutated on the side. After every step every
// RelationDigest and DigestOf of the new clone equals that of a fresh
// parse of its facts, the digests of every older clone are where they
// were, every block whose digest differs from the parent's is in the
// change log since the parent's version, and a sibling's version is not in
// the log. Some steps digest the parent before cloning, so the copy
// carries its sorted block digests over; others leave them to be built on
// the copy.
func TestCloneChainDigestsMatchFreshParse(t *testing.T) {
	rels := []string{"R", "S", "U"}
	type frozen struct {
		d       *DB
		digests map[string]string
	}
	freeze := func(d *DB) frozen {
		f := frozen{d: d, digests: map[string]string{}}
		for _, rel := range rels {
			f.digests[rel] = d.RelationDigest(rel)
		}
		return f
	}
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(4711 + seed))
		randomFact := func() Fact {
			v := func() string { return fmt.Sprintf("v%d", r.Intn(5)) }
			return Fact{Rel: rels[r.Intn(len(rels))], KeyLen: 1, Args: []string{v(), v()}}
		}
		mutate := func(d *DB) {
			for n := 1 + r.Intn(3); n > 0; n-- {
				f := randomFact()
				if d.Has(f) {
					d.Remove(f)
				} else if err := d.Add(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		cur := MustParse("R(v0 | v1) R(v0 | v2) S(v1 | v3) U(v4 | v4)")
		var older []frozen
		for step := 0; step < 60; step++ {
			if r.Intn(2) == 0 {
				cur.DigestOf(rels)
				cur.BlockDigests("R")
			}
			next, sibling := cur.Clone(), cur.Clone()
			mutate(next)
			mutate(sibling)
			for _, d := range []*DB{next, sibling} {
				fresh := MustParse(d.String())
				for _, rel := range rels {
					if got, want := d.RelationDigest(rel), fresh.RelationDigest(rel); got != want {
						t.Fatalf("seed %d step %d: RelationDigest(%s) %s, fresh parse %s", seed, step, rel, got, want)
					}
				}
				if got, want := d.DigestOf(rels), fresh.DigestOf(rels); got != want {
					t.Fatalf("seed %d step %d: DigestOf %s, fresh parse %s", seed, step, got, want)
				}
			}
			for _, rel := range rels {
				v, sv := cur.RelationVersion(rel), sibling.RelationVersion(rel)
				changed, ok := next.ChangedBlocks(rel, v)
				if v == 0 || next.RelationVersion(rel) == 0 {
					continue // the relation appeared or vanished: its log starts anew
				}
				if !ok {
					t.Fatalf("seed %d step %d: %s's change log since the parent's version %d is missing", seed, step, rel, v)
				}
				logged := map[string]bool{}
				for _, bid := range changed {
					logged[bid] = true
				}
				before, after := cur.BlockDigests(rel), next.BlockDigests(rel)
				for bid := range union(before, after) {
					if before[bid] != after[bid] && !logged[bid] {
						t.Fatalf("seed %d step %d: block %s of %s changed but is not in the log %v", seed, step, bid, rel, changed)
					}
				}
				if sv != v {
					if _, ok := next.ChangedBlocks(rel, sv); ok {
						t.Fatalf("seed %d step %d: %s's log reaches a sibling's version %d", seed, step, rel, sv)
					}
				}
			}
			older = append(older, freeze(cur), freeze(sibling))
			for i, o := range older {
				for _, rel := range rels {
					if got := o.d.RelationDigest(rel); got != o.digests[rel] {
						t.Fatalf("seed %d step %d: older clone %d's RelationDigest(%s) moved: %s -> %s", seed, step, i, rel, o.digests[rel], got)
					}
				}
			}
			cur = next
		}
	}
}

// union returns the keys of a and b.
func union(a, b map[string]string) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// numBlocks returns the number of blocks of rel in d's interned view.
func numBlocks(d *DB, rel string) int {
	if r := d.Interned().Rel(rel); r != nil {
		return r.NumBlocks()
	}
	return 0
}

// postingLen returns the number of facts of rel carrying val at pos in d's
// interned view.
func postingLen(d *DB, rel string, pos int, val string) int {
	in := d.Interned()
	id, ok := in.Syms.Lookup(val)
	if r := in.Rel(rel); ok && r != nil {
		return len(r.Posting(pos, id))
	}
	return 0
}

// TestDigestGolden pins the digest bytes: /v1/db serves them and the verdict
// cache and shard fingerprints are keyed on them, so a rewrite of the
// hashing must reproduce them exactly. The database mixes quoted, numeric
// and multi-fact blocks; an absent relation takes part in DigestOf.
func TestDigestGolden(t *testing.T) {
	d := MustParse(`# quoted, numeric and multi-fact blocks
C(PODS, 2016 | Rome)
C(PODS, 2016 | Paris)
C('ICDT', 2017 | 'Venice, Lido')
Q('it\'s', 'a\\b' | -3.5)
N(1, -2 | 3.5)
N(1, -2 | 4), N(7, 0.5 | '')
`)
	for _, c := range []struct{ name, got, want string }{
		{"Digest", d.Digest(), "1e0d04e34aa5cfa380b350bfb786d3a39e29a2cd65743996097ec55ab9feee2b"},
		{"RelationDigest(C)", d.RelationDigest("C"), "fd42ec969edec1ca9869e653ef08b73183fc35873a6f82322357b79e53b44cc3"},
		{"DigestOf(N, C, X)", d.DigestOf([]string{"N", "C", "X"}), "36b14e4ea47779062510da90528b023e55db0f84e119ebbc12b09748972f7eb1"},
		{"BlockDigests(C)[PODS, 2016]", d.BlockDigests("C")[NewFact("C", 2, "PODS", "2016", "Rome").BlockID()], "ac84ac2ea5b2f2a86d5d562af5bbbef9179f9a467c533fb33d85a9ce9da9fbcb"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}
