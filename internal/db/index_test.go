package db

import (
	"reflect"
	"testing"
)

func indexTestDB(t *testing.T) *DB {
	t.Helper()
	return MustParse(`
		R(a | b)
		R(a | c)
		R(b | b)
		S(b, c | a)
		S(b, c | d)
		T(x | y)
	`)
}

// legacyClone is the pre-index Clone path: re-inserting every fact through
// Add. The structural copy must be indistinguishable from it.
func legacyClone(d *DB) *DB {
	c := New()
	for _, f := range d.Facts() {
		if err := c.Add(f); err != nil {
			panic(err)
		}
	}
	return c
}

func TestCloneStructuralMatchesLegacy(t *testing.T) {
	d := indexTestDB(t)
	structural := d.Clone()
	legacy := legacyClone(d)

	if !structural.Equal(legacy) || !legacy.Equal(structural) {
		t.Fatal("structural clone differs from legacy clone as a fact set")
	}
	if structural.String() != legacy.String() {
		t.Fatalf("rendering differs:\n%s\nvs\n%s", structural, legacy)
	}
	if !reflect.DeepEqual(structural.Blocks(), legacy.Blocks()) {
		t.Fatal("block structure differs")
	}
	if !reflect.DeepEqual(structural.Relations(), legacy.Relations()) {
		t.Fatal("relation sets differ")
	}
	for _, rel := range legacy.Relations() {
		if !reflect.DeepEqual(structural.FactsOf(rel), legacy.FactsOf(rel)) {
			t.Fatalf("FactsOf(%s) differs", rel)
		}
		a1, k1, _ := structural.Signature(rel)
		a2, k2, _ := legacy.Signature(rel)
		if a1 != a2 || k1 != k2 {
			t.Fatalf("Signature(%s) differs", rel)
		}
	}
	if structural.NumRepairs().Cmp(legacy.NumRepairs()) != 0 {
		t.Fatal("repair counts differ")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	d := indexTestDB(t)
	c := d.Clone()
	if err := c.Add(NewFact("U", 1, "new")); err != nil {
		t.Fatal(err)
	}
	if d.Has(NewFact("U", 1, "new")) {
		t.Fatal("mutating the clone leaked into the original")
	}
	if !c.Remove(NewFact("T", 1, "x", "y")) {
		t.Fatal("Remove on clone failed")
	}
	if !d.Has(NewFact("T", 1, "x", "y")) {
		t.Fatal("removing from the clone leaked into the original")
	}
}

// factsAtIndices maps fact indices of rel's interned columns back to the
// facts they denote (indices are insertion positions).
func factsAtIndices(d *DB, rel string, idx []uint32) []Fact {
	facts := d.FactsOf(rel)
	var out []Fact
	for _, fi := range idx {
		out = append(out, facts[fi])
	}
	return out
}

func TestBlocksOfMatchesDerivation(t *testing.T) {
	d := indexTestDB(t)
	// Reference: the per-call derivation the solver used to perform.
	want := func(rel string) [][]Fact {
		var out [][]Fact
		seen := make(map[string]bool)
		for _, f := range d.FactsOf(rel) {
			bid := f.BlockID()
			if seen[bid] {
				continue
			}
			seen[bid] = true
			out = append(out, d.Block(f))
		}
		return out
	}
	in := d.Interned()
	for _, rel := range d.Relations() {
		ir := in.Rel(rel)
		var got [][]Fact
		for b := 0; b < ir.NumBlocks(); b++ {
			got = append(got, factsAtIndices(d, rel, ir.BlockSpan(b)))
		}
		if !reflect.DeepEqual(got, want(rel)) {
			t.Fatalf("block spans of %s = %v, want %v", rel, got, want(rel))
		}
	}
	if in.Rel("missing") != nil {
		t.Fatal("the view of an absent relation must be nil")
	}
}

func TestRelationFactsShared(t *testing.T) {
	d := indexTestDB(t)
	in := d.Interned()
	for _, rel := range d.Relations() {
		ir := in.Rel(rel)
		var cols []Fact
		for i := 0; i < ir.NumFacts(); i++ {
			args := make([]string, ir.Arity)
			for p := range args {
				args[p] = in.Syms.MustString(ir.Cols[p][i])
			}
			cols = append(cols, Fact{Rel: rel, KeyLen: ir.KeyLen, Args: args})
		}
		if !reflect.DeepEqual(cols, d.FactsOf(rel)) {
			t.Fatalf("columns of %s differ from FactsOf", rel)
		}
	}
	// Memoized: the same view and the same column arrays across calls.
	a, b := d.Interned(), d.Interned()
	if a != b || &a.Rel("R").Cols[0][0] != &b.Rel("R").Cols[0][0] {
		t.Fatal("the interned view is not memoized")
	}
}

func TestFactsAtPostings(t *testing.T) {
	d := indexTestDB(t)
	// Reference: filter the relation scan.
	want := func(rel string, pos int, value string) []Fact {
		var out []Fact
		for _, f := range d.FactsOf(rel) {
			if pos < len(f.Args) && f.Args[pos] == value {
				out = append(out, f)
			}
		}
		return out
	}
	cases := []struct {
		rel   string
		pos   int
		value string
	}{
		{"R", 0, "a"}, {"R", 1, "b"}, {"R", 1, "c"},
		{"S", 0, "b"}, {"S", 2, "a"}, {"S", 2, "d"},
		{"R", 0, "zzz"}, {"R", 5, "a"}, {"Q", 0, "a"},
	}
	in := d.Interned()
	for _, c := range cases {
		var got []Fact
		ir := in.Rel(c.rel)
		if id, ok := in.Syms.Lookup(c.value); ok && ir != nil && c.pos < ir.Arity {
			got = factsAtIndices(d, c.rel, ir.Posting(c.pos, id))
		}
		if !reflect.DeepEqual(got, want(c.rel, c.pos, c.value)) {
			t.Fatalf("Posting(%s,%d,%s) = %v, want %v", c.rel, c.pos, c.value, got, want(c.rel, c.pos, c.value))
		}
	}
}

// keyIDs returns the ids of f's key constants in in (intern.None for a
// constant absent from the view).
func keyIDs(in *Interned, f Fact) []uint32 {
	var key []uint32
	for _, a := range f.KeyArgs() {
		id, _ := in.Syms.Lookup(a)
		key = append(key, id)
	}
	return key
}

func TestBlockViewMatchesBlock(t *testing.T) {
	d := indexTestDB(t)
	in := d.Interned()
	for _, f := range d.Facts() {
		span, ok := in.Rel(f.Rel).BlockOf(keyIDs(in, f))
		if !ok || !reflect.DeepEqual(factsAtIndices(d, f.Rel, span), d.Block(f)) {
			t.Fatalf("BlockOf(%v) differs from Block", f)
		}
	}
	// "c" is a constant of the view, but no R block has it as key.
	if _, ok := in.Rel("R").BlockOf(keyIDs(in, NewFact("R", 1, "c", "x"))); ok {
		t.Fatal("BlockOf of an absent block must report false")
	}
}

func TestIndexInvalidationOnMutation(t *testing.T) {
	d := MustParse("R(a | b)")
	if n := d.Interned().Rel("R").NumBlocks(); n != 1 {
		t.Fatalf("R has %d blocks, want 1", n)
	}
	dig1 := d.Digest()

	// Add a key-equal fact: the blocks, postings, and digest must all
	// reflect it.
	if err := d.Add(NewFact("R", 1, "a", "c")); err != nil {
		t.Fatal(err)
	}
	in := d.Interned()
	if n := len(in.Rel("R").BlockSpan(0)); n != 2 {
		t.Fatalf("block size after Add = %d, want 2", n)
	}
	if c, ok := in.Syms.Lookup("c"); !ok || len(in.Rel("R").Posting(1, c)) != 1 {
		t.Fatal("postings not rebuilt after Add")
	}
	if d.Digest() == dig1 {
		t.Fatal("digest did not change after Add")
	}

	// Remove: back to the original content, digest must round-trip.
	if !d.Remove(NewFact("R", 1, "a", "c")) {
		t.Fatal("Remove failed")
	}
	if d.Digest() != dig1 {
		t.Fatal("digest does not round-trip after Remove")
	}

	// RemoveBlock: empty database.
	if n := d.RemoveBlock(NewFact("R", 1, "a", "b")); n != 1 {
		t.Fatalf("RemoveBlock = %d, want 1", n)
	}
	if d.Interned().Rel("R") != nil || d.Len() != 0 {
		t.Fatal("index stale after RemoveBlock")
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	a := MustParse("R(a | b), R(a | c), S(x | y)")
	b := MustParse("S(x | y), R(a | c), R(a | b)")
	if a.Digest() != b.Digest() {
		t.Fatal("digest must be insertion-order independent")
	}
	c := MustParse("R(a | b), R(a | c)")
	if a.Digest() == c.Digest() {
		t.Fatal("different fact sets must digest differently")
	}
	// Key length participates: same rendered args, different signature.
	d1 := MustFromFacts(Fact{Rel: "R", KeyLen: 1, Args: []string{"a", "b"}})
	d2 := MustFromFacts(Fact{Rel: "R", KeyLen: 2, Args: []string{"a", "b"}})
	if d1.Digest() == d2.Digest() {
		t.Fatal("digest must distinguish key lengths")
	}
}

func TestDigestSharedByClone(t *testing.T) {
	d := indexTestDB(t)
	if d.Clone().Digest() != d.Digest() {
		t.Fatal("clone digest differs")
	}
}

func TestConcurrentIndexReads(t *testing.T) {
	d := indexTestDB(t)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				_ = d.Digest()
				in := d.Interned()
				_ = in.Rel("R").BlockSpan(0)
				_ = in.Rel("S").Cols
				if a, ok := in.Syms.Lookup("a"); ok {
					_ = in.Rel("R").Posting(0, a)
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
