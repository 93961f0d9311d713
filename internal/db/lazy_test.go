package db

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// lazyText is a database text with two relations, multi-fact blocks and a
// duplicate fact.
func lazyText() string {
	var b strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "R(a%d | b%d)\nS(b%d, c%d | d%d)\n", i%25, i, i%7, i%3, i)
	}
	b.WriteString("R(a0 | b0)\n")
	return b.String()
}

// parseRef parses text with the reference parser, which builds a database
// by Add.
func parseRef(t *testing.T, text string) *DB {
	t.Helper()
	d, err := refParse(text)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestParseBuildsNoStringSide: Parse leaves the string side unbuilt, and
// the reads that answer from the columns (Len, NumBlocks, Interned,
// InternedIfBuilt, Relations, Signature, RelationVersion) do not build it.
func TestParseBuildsNoStringSide(t *testing.T) {
	before := stringBuilds.Value()
	d := MustParse(lazyText())
	ref := parseRef(t, lazyText())
	if d.Len() != ref.Len() || d.NumBlocks() != ref.NumBlocks() || d.InternedIfBuilt() == nil || d.Interned() == nil {
		t.Fatalf("Len %d, NumBlocks %d, want %d, %d, with the view built", d.Len(), d.NumBlocks(), ref.Len(), ref.NumBlocks())
	}
	if a, k, ok := d.Signature("S"); !ok || a != 3 || k != 2 || fmt.Sprint(d.Relations()) != "[R S]" || d.RelationVersion("R") == 0 || d.RelationVersion("T") != 0 {
		t.Fatalf("Signature(S) = %d, %d, %v; Relations %v", a, k, ok, d.Relations())
	}
	if got := stringBuilds.Value() - before; got != 0 {
		t.Fatalf("Parse and the column reads built %d string sides, want 0", got)
	}
	if d.String() != ref.String() {
		t.Fatalf("String = %q, want %q", d.String(), ref.String())
	}
	if got := stringBuilds.Value() - before; got != 1 {
		t.Fatalf("the first String built %d string sides, want 1", got)
	}
}

// TestFirstReadsRaceToBuildStringSide: readers race to make the first call
// on a freshly parsed database, one of Facts, Blocks, String, Digest,
// RelationVersion, and Clone followed by Add on the clone. Exactly one
// string side is built, every reader sees the same content, no relation
// version changes, and the clone's write does not reach the original.
// Run it under -race.
func TestFirstReadsRaceToBuildStringSide(t *testing.T) {
	text := lazyText()
	ref := parseRef(t, text)
	extra := NewFact("R", 1, "new", "fact")
	for round := 0; round < 20; round++ {
		d := MustParse(text)
		vR, vS := d.RelationVersion("R"), d.RelationVersion("S")
		before := stringBuilds.Value()
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		check := func(what string, ok bool) {
			if !ok {
				errs <- what
			}
		}
		reads := []func(){
			func() { check("Facts", len(d.Facts()) == ref.Len()) },
			func() { check("Blocks", len(d.Blocks()) == ref.NumBlocks()) },
			func() { check("String", d.String() == ref.String()) },
			func() { check("Digest", d.Digest() == ref.Digest()) },
			func() { check("RelationVersion", d.RelationVersion("R") == vR) },
			func() {
				c := d.Clone()
				check("Clone+Add", c.Add(extra) == nil && c.Has(extra) && c.Len() == ref.Len()+1)
			},
		}
		for _, read := range append(reads, reads...) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				read()
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for what := range errs {
			t.Errorf("round %d: %s disagreed with a fresh reference parse", round, what)
		}
		if got := stringBuilds.Value() - before; got != 1 {
			t.Fatalf("round %d: %d string sides built, want exactly 1", round, got)
		}
		if d.RelationVersion("R") != vR || d.RelationVersion("S") != vS {
			t.Fatalf("round %d: versions moved from %d, %d to %d, %d", round, vR, vS, d.RelationVersion("R"), d.RelationVersion("S"))
		}
		if d.Has(extra) || d.Len() != ref.Len() || d.Digest() != ref.Digest() {
			t.Fatalf("round %d: the clone's write reached the parsed database", round)
		}
	}
}

// TestParsedDatabaseMutatesLikeReference: a mutation of a parsed database
// takes its string side, and the database then reads like the reference
// built by Add, and each written relation has a new version.
func TestParsedDatabaseMutatesLikeReference(t *testing.T) {
	d, ref := MustParse(lazyText()), parseRef(t, lazyText())
	vR, vS := d.RelationVersion("R"), d.RelationVersion("S")
	f := NewFact("R", 1, "a1", "zz")
	if err := d.Add(f); err != nil {
		t.Fatal(err)
	}
	if err := ref.Add(f); err != nil {
		t.Fatal(err)
	}
	if !d.Remove(NewFact("S", 2, "b0", "c0", "d0")) || !ref.Remove(NewFact("S", 2, "b0", "c0", "d0")) {
		t.Fatal("Remove of a present fact reported false")
	}
	if d.String() != ref.String() || d.Digest() != ref.Digest() || d.Interned().NumFacts() != ref.Len() {
		t.Fatalf("after the writes:\n%s\nwant\n%s", d, ref)
	}
	if d.RelationVersion("R") == vR || d.RelationVersion("S") == vS {
		t.Fatal("a written relation kept its version")
	}
}

// TestAddToParsedDatabaseChecksSignature: Add on a freshly parsed database
// checks the fact's signature against the parsed relations, whose string
// side it builds first, and a rejected fact leaves the database as parsed.
func TestAddToParsedDatabaseChecksSignature(t *testing.T) {
	d, ref := MustParse(lazyText()), parseRef(t, lazyText())
	if err := d.Add(NewFact("R", 1, "a1", "b1", "c1")); err == nil {
		t.Fatal("Add accepted R with 3 arguments into a database whose R has 2")
	}
	if d.String() != ref.String() {
		t.Fatalf("after the rejected Add:\n%s\nwant\n%s", d, ref)
	}
}
