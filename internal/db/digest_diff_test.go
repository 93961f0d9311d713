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
