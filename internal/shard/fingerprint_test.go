package shard

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// fuzzQuery is the decomposition target of the fingerprint fuzz: two
// components (the R–S chain and the standalone U) so fingerprints must
// separate both shards within a component and shards across components.
func fuzzQuery() cq.Query {
	return cq.MustParseQuery("R(x | y), S(y | z), U(u | v)")
}

// factsFromBytes decodes a fuzz payload into a fact list: three bytes per
// fact (relation selector, key symbol, value symbol) over a domain small
// enough that facts collide into shared blocks and blocks into shared
// co-occurrence groups.
func factsFromBytes(data []byte) []db.Fact {
	rels := []string{"R", "S", "U"}
	var facts []db.Fact
	for i := 0; i+2 < len(data); i += 3 {
		facts = append(facts, db.Fact{
			Rel:    rels[int(data[i])%len(rels)],
			KeyLen: 1,
			Args: []string{
				string(rune('a' + int(data[i+1])%5)),
				string(rune('a' + int(data[i+2])%5)),
			},
		})
	}
	return facts
}

// buildDB inserts facts in the given order (idempotently; duplicates in the
// payload are fine).
func buildDB(t testing.TB, facts []db.Fact) *db.DB {
	t.Helper()
	d := db.New()
	for _, f := range facts {
		if err := d.Add(f); err != nil {
			t.Fatalf("Add %v: %v", f, err)
		}
	}
	return d
}

// fingerprintsByBlockset maps each shard's sorted block-ID list to its
// fingerprint, failing if two distinct shards (differing block content)
// share a fingerprint.
func fingerprintsByBlockset(t testing.TB, q cq.Query, d *db.DB) map[string]string {
	t.Helper()
	dec := Decompose(q, d)
	out := make(map[string]string)
	seen := make(map[string]string) // fingerprint → blockset
	for j := range dec.Components {
		for i := range dec.Blocks[j] {
			key := fmt.Sprintf("c%d|%s", j, strings.Join(dec.Blocks[j][i], ","))
			fp := dec.ShardFingerprint(d, j, i)
			if prev, dup := seen[fp]; dup && prev != key {
				t.Fatalf("fingerprint collision: shards %q and %q both hash to %s", prev, key, fp)
			}
			seen[fp] = key
			out[key] = fp
		}
	}
	return out
}

// FuzzShardFingerprint fuzzes the two fingerprint invariants everything in
// delta re-solve rests on: (1) no collisions — distinct shards of one
// decomposition (distinct block content) never share a fingerprint; (2)
// insertion-order independence — rebuilding the same fact set in reversed
// and deterministically shuffled orders yields the identical
// blockset → fingerprint map, so a memo filled through one mutation history
// is valid for any other history arriving at the same content.
func FuzzShardFingerprint(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 3, 3})
	f.Add([]byte{0, 1, 2, 1, 2, 3, 2, 4, 0, 0, 1, 1})
	f.Add([]byte("R(a|b) S(b|c) fuzz me harder"))
	f.Add([]byte{255, 255, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0})
	q := fuzzQuery()
	f.Fuzz(func(t *testing.T, data []byte) {
		facts := factsFromBytes(data)
		if len(facts) == 0 {
			t.Skip("payload too short for a fact")
		}
		base := fingerprintsByBlockset(t, q, buildDB(t, facts))

		reversed := make([]db.Fact, len(facts))
		for i, fc := range facts {
			reversed[len(facts)-1-i] = fc
		}
		if got := fingerprintsByBlockset(t, q, buildDB(t, reversed)); !mapsEqual(got, base) {
			t.Errorf("reversed insertion order changed fingerprints:\n got %v\nwant %v", got, base)
		}

		r := rand.New(rand.NewSource(int64(len(facts)) * 7717))
		shuf := append([]db.Fact(nil), facts...)
		r.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		if got := fingerprintsByBlockset(t, q, buildDB(t, shuf)); !mapsEqual(got, base) {
			t.Errorf("shuffled insertion order changed fingerprints:\n got %v\nwant %v", got, base)
		}
	})
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestShardFingerprintContent pins the content-addressing behavior the
// memo relies on: a mutation inside a shard's blocks changes that shard's
// fingerprint and ONLY that shard's; fingerprints differ across components
// even for coincidentally equal block IDs; and the fingerprint survives a
// database rebuild (no dependence on object identity or index build
// order).
func TestShardFingerprintContent(t *testing.T) {
	q := fuzzQuery()
	text := `
		R(a | b) S(b | c)
		R(d | e) S(e | f)
		U(k | w)
	`
	d := db.MustParse(text)
	before := fingerprintsByBlockset(t, q, d)

	// Rebuild → identical fingerprints.
	if got := fingerprintsByBlockset(t, q, db.MustParse(text)); !mapsEqual(got, before) {
		t.Errorf("rebuild changed fingerprints:\n got %v\nwant %v", got, before)
	}

	// Mutate one block of R: exactly the shards whose blocksets contain
	// that block change fingerprints.
	if err := d.Add(db.Fact{Rel: "R", KeyLen: 1, Args: []string{"a", "b2"}}); err != nil {
		t.Fatal(err)
	}
	after := fingerprintsByBlockset(t, q, d)
	changedBlock := db.Fact{Rel: "R", KeyLen: 1, Args: []string{"a", "b2"}}.BlockID()
	for key, fp := range after {
		wantSame := !strings.Contains(key, changedBlock)
		prev, existed := before[key]
		switch {
		case !existed:
			if wantSame {
				t.Errorf("shard %q appeared without containing the touched block", key)
			}
		case wantSame && fp != prev:
			t.Errorf("untouched shard %q changed fingerprint: %s → %s", key, prev, fp)
		case !wantSame && fp == prev:
			t.Errorf("touched shard %q kept fingerprint %s across a block mutation", key, fp)
		}
	}
}

// TestComponentFingerprintsMatchShardFingerprint: the bulk accessor is
// exactly the per-shard one.
func TestComponentFingerprintsMatchShardFingerprint(t *testing.T) {
	q := fuzzQuery()
	d := db.MustParse(`R(a | b) S(b | c) R(d | e) S(e | f) U(k | w) U(k2 | w2)`)
	dec := Decompose(q, d)
	for j := range dec.Components {
		fps := dec.ComponentFingerprints(d, j)
		if len(fps) != len(dec.Blocks[j]) {
			t.Fatalf("component %d: %d fingerprints for %d shards", j, len(fps), len(dec.Blocks[j]))
		}
		for i, fp := range fps {
			if got := dec.ShardFingerprint(d, j, i); got != fp {
				t.Errorf("component %d shard %d: bulk %s != single %s", j, i, fp, got)
			}
		}
	}
}
