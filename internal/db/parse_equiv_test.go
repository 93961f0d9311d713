package db

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzParseEquivalence holds Parse to refParse, the token parser followed by
// one Add per atom: they must accept and reject the same inputs, and on
// accepted ones build the same database — facts and blocks in the same
// order, the same digests — and the same interned view, symbol ids and
// layout included. Parse's view must also equal what buildInterned makes of
// the same database. All of it must hold again after one Remove and one Add,
// on clones and on fresh databases mutated in place, where the views are
// rebuilt lazily.
func FuzzParseEquivalence(f *testing.F) {
	for _, s := range parseDBSeeds {
		f.Add(s)
	}
	f.Add(solveInlineText(1))
	// Removing R(a | 1) leaves block a ahead of block b, whose fact now
	// comes first.
	f.Add("R(a | 1), R(b | 1), R(a | 2)")
	f.Fuzz(func(t *testing.T, input string) {
		got, gerr := Parse(input)
		want, werr := refParse(input)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Parse error %v, reference error %v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		sameDB(t, got, want)
		sameView(t, got.Interned(), got.buildInterned())
		sameView(t, got.Interned(), want.Interned())
		checkInternedMirrors(t, got)

		facts := want.Facts()
		if len(facts) == 0 {
			return
		}
		// Remove the first fact of a block that keeps others, when there is
		// one: the block then stays ahead of blocks its remaining facts
		// follow. Add a fact that differs from the last one in its last
		// argument.
		victim := facts[0]
		for _, blk := range want.Blocks() {
			if len(blk) > 1 {
				victim = blk[0]
				break
			}
		}
		last := facts[len(facts)-1]
		args := slices.Clone(last.Args)
		args[len(args)-1] += "'"
		added := Fact{Rel: last.Rel, KeyLen: last.KeyLen, Args: args}
		if got.Has(added) != want.Has(added) {
			t.Fatalf("Has(%v) differs", added)
		}
		g3, _ := Parse(input) // not cloned: its relations change in place
		w3, _ := refParse(input)
		for _, pair := range [][2]*DB{{got.Clone(), want.Clone()}, {g3, w3}} {
			for _, d := range pair {
				if !d.Remove(victim) {
					t.Fatalf("Remove(%v) found nothing", victim)
				}
				if err := d.Add(added); err != nil {
					t.Fatalf("Add(%v): %v", added, err)
				}
			}
			sameDB(t, pair[0], pair[1])
			sameView(t, pair[0].Interned(), pair[1].Interned())
			checkInternedMirrors(t, pair[0])
		}
		sameDB(t, got, want) // the clones' mutations leave the originals alone
		sameView(t, got.Interned(), want.Interned())
	})
}

// solveInlineText renders an instance of the most common solve-inline
// family of the end-to-end benchmark, R(x | y), S(y | z) with 2 embeddings
// and 125 noise facts per relation over 100 constants, as the benchmark
// sends it: every constant carries the request's suffix, one fact per line.
func solveInlineText(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	c := func() string { return fmt.Sprintf("c%d_s0i1", r.Intn(100)) }
	var b strings.Builder
	for e := 0; e < 2; e++ {
		x, y, z := c(), c(), c()
		fmt.Fprintf(&b, "R(%s | %s)\nS(%s | %s)\n", x, y, y, z)
	}
	for _, rel := range []string{"R", "S"} {
		for i := 0; i < 125; i++ {
			fmt.Fprintf(&b, "%s(%s | %s)\n", rel, c(), c())
		}
	}
	return b.String()
}

// sameDB fails unless got and want hold the same facts in the same order,
// the same blocks in the same order, and the same digests.
func sameDB(t *testing.T, got, want *DB) {
	t.Helper()
	if !reflect.DeepEqual(got.Facts(), want.Facts()) {
		t.Fatalf("Facts differ:\n%v\n%v", got.Facts(), want.Facts())
	}
	if !reflect.DeepEqual(got.Blocks(), want.Blocks()) {
		t.Fatalf("Blocks differ:\n%v\n%v", got.Blocks(), want.Blocks())
	}
	rels := want.Relations()
	if !reflect.DeepEqual(got.Relations(), rels) {
		t.Fatalf("Relations %v, want %v", got.Relations(), rels)
	}
	for _, f := range want.Facts() {
		if !got.Has(f) {
			t.Fatalf("Has(%v) = false", f)
		}
	}
	rels = append(rels, "") // no relation is named ""
	for _, rel := range rels {
		if !reflect.DeepEqual(got.FactsOf(rel), want.FactsOf(rel)) {
			t.Fatalf("FactsOf(%s) differs", rel)
		}
		if g, w := got.RelationDigest(rel), want.RelationDigest(rel); g != w {
			t.Fatalf("RelationDigest(%s) = %s, want %s", rel, g, w)
		}
		if !reflect.DeepEqual(got.BlockDigests(rel), want.BlockDigests(rel)) {
			t.Fatalf("BlockDigests(%s) differ", rel)
		}
	}
	if g, w := got.Digest(), want.Digest(); g != w {
		t.Fatalf("Digest = %s, want %s", g, w)
	}
	if g, w := got.DigestOf(rels), want.DigestOf(rels); g != w {
		t.Fatalf("DigestOf = %s, want %s", g, w)
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("String differs:\n%s\n%s", g, w)
	}
}

// sameView fails unless got and want assign the same symbol ids and lay
// every relation out alike, and answer every index probe alike.
func sameView(t *testing.T, got, want *Interned) {
	t.Helper()
	n := want.Syms.Len()
	if got.Syms.Len() != n {
		t.Fatalf("%d symbols, want %d", got.Syms.Len(), n)
	}
	for id := uint32(0); id < uint32(n); id++ {
		if g, w := got.Syms.MustString(id), want.Syms.MustString(id); g != w {
			t.Fatalf("symbol %d is %q, want %q", id, g, w)
		}
	}
	if !slices.Equal(got.Domain(), want.Domain()) || !slices.Equal(got.isDomainSym, want.isDomainSym) {
		t.Fatalf("domain %v, want %v", got.Domain(), want.Domain())
	}
	if len(got.rels) != len(want.rels) {
		t.Fatalf("%d relations, want %d", len(got.rels), len(want.rels))
	}
	for name, w := range want.rels {
		g := got.Rel(name)
		if g == nil {
			t.Fatalf("relation %s missing", name)
		}
		if g.Arity != w.Arity || g.KeyLen != w.KeyLen || g.NumFacts() != w.NumFacts() || g.NumBlocks() != w.NumBlocks() {
			t.Fatalf("%s: shape [%d,%d] %d facts %d blocks, want [%d,%d] %d facts %d blocks", name,
				g.Arity, g.KeyLen, g.NumFacts(), g.NumBlocks(), w.Arity, w.KeyLen, w.NumFacts(), w.NumBlocks())
		}
		if !reflect.DeepEqual(g.Cols, w.Cols) || !slices.Equal(g.ByBlock, w.ByBlock) ||
			!slices.Equal(g.BlockOff, w.BlockOff) || !slices.Equal(g.BlockOfFact, w.BlockOfFact) {
			t.Fatalf("%s: layout differs", name)
		}
		for p := 0; p < w.Arity; p++ {
			for id := uint32(0); id < uint32(n); id++ {
				if !slices.Equal(g.Posting(p, id), w.Posting(p, id)) {
					t.Fatalf("%s: Posting(%d, %d) = %v, want %v", name, p, id, g.Posting(p, id), w.Posting(p, id))
				}
			}
		}
		args := make([]uint32, w.Arity)
		for fi := 0; fi < w.NumFacts(); fi++ {
			for p := range args {
				args[p] = w.Cols[p][fi]
			}
			if gi, ok := g.FactIndex(args); !ok || gi != uint32(fi) {
				t.Fatalf("%s: FactIndex(%v) = (%d, %v), want %d", name, args, gi, ok, fi)
			}
			if span, ok := g.BlockOf(args[:w.KeyLen]); !ok || !slices.Equal(span, w.BlockSpan(int(w.BlockOfFact[fi]))) {
				t.Fatalf("%s: BlockOf(%v) = %v, want block %d", name, args[:w.KeyLen], span, w.BlockOfFact[fi])
			}
		}
	}
}
