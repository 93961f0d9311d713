package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/cqa-go/certainty/internal/intern"
)

// randomTestDB hand-rolls a random database (the gen package depends on db,
// so tests inside package db cannot import it): nRels relations of mixed
// arity/keyLen, with deliberate key collisions so blocks have >1 fact.
func randomTestDB(rng *rand.Rand, nFacts int) *DB {
	d := New()
	sigs := [][2]int{{1, 1}, {2, 1}, {3, 2}, {4, 2}}
	for i := 0; i < nFacts; i++ {
		rel := fmt.Sprintf("R%d", rng.Intn(4))
		sig := sigs[rng.Intn(4)]
		if r, ok := d.rels[rel]; ok {
			sig = r.sig
		}
		args := make([]string, sig[0])
		for p := range args {
			// Small domain => frequent key collisions => real blocks.
			args[p] = fmt.Sprintf("c%d", rng.Intn(6))
		}
		if err := d.Add(Fact{Rel: rel, KeyLen: sig[1], Args: args}); err != nil {
			panic(err)
		}
	}
	return d
}

// checkInternedMirrors verifies every columnar invariant of the interned
// view against the string-facing storage it mirrors.
func checkInternedMirrors(t *testing.T, d *DB) {
	t.Helper()
	in := d.Interned()
	for _, rel := range d.Relations() {
		ir := in.Rel(rel)
		if ir == nil {
			t.Fatalf("relation %s missing from interned view", rel)
		}
		facts := d.FactsOf(rel)
		arity, keyLen, _ := d.Signature(rel)
		if ir.Arity != arity || ir.KeyLen != keyLen {
			t.Fatalf("%s signature: interned [%d,%d], want [%d,%d]", rel, ir.Arity, ir.KeyLen, arity, keyLen)
		}
		if ir.NumFacts() != len(facts) {
			t.Fatalf("%s: %d interned facts, want %d", rel, ir.NumFacts(), len(facts))
		}
		// Columns mirror the insertion-ordered fact slice.
		for i, f := range facts {
			for p, a := range f.Args {
				id := ir.Cols[p][i]
				if s := in.Syms.MustString(id); s != a {
					t.Fatalf("%s fact %d arg %d: id %d is %q, want %q", rel, i, p, id, s, a)
				}
			}
		}
		// Block spans mirror the relation's blocks in first-insertion order
		// (Blocks filtered to rel): same order, same facts, ascending fact
		// indices within each span.
		var blocks [][]Fact
		for _, blk := range d.Blocks() {
			if blk[0].Rel == rel {
				blocks = append(blocks, blk)
			}
		}
		if ir.NumBlocks() != len(blocks) {
			t.Fatalf("%s: %d interned blocks, want %d", rel, ir.NumBlocks(), len(blocks))
		}
		key := make([]uint32, keyLen)
		for b, blk := range blocks {
			span := ir.BlockSpan(b)
			if len(span) != len(blk) {
				t.Fatalf("%s block %d: span size %d, want %d", rel, b, len(span), len(blk))
			}
			for j, f := range blk {
				fi := span[j]
				if j > 0 && span[j] <= span[j-1] {
					t.Fatalf("%s block %d: span not ascending: %v", rel, b, span)
				}
				if !facts[fi].Equal(f) {
					t.Fatalf("%s block %d entry %d: fact index %d is %v, want %v", rel, b, j, fi, facts[fi], f)
				}
			}
			// BlockOf finds the same span by key ids.
			for p := 0; p < keyLen; p++ {
				key[p], _ = in.Syms.Lookup(blk[0].Args[p])
			}
			got, ok := ir.BlockOf(key)
			if !ok || len(got) != len(span) || &got[0] != &span[0] {
				t.Fatalf("%s block %d: BlockOf did not return the span (ok=%v)", rel, b, ok)
			}
		}
		// FactIndex/HasTuple agree with Has; postings mirror a scan of the
		// relation filtered by position and value.
		args := make([]uint32, arity)
		for i, f := range facts {
			for p, a := range f.Args {
				args[p], _ = in.Syms.Lookup(a)
			}
			fi, ok := ir.FactIndex(args)
			if !ok || int(fi) != i {
				t.Fatalf("%s: FactIndex(%v) = (%d, %v), want (%d, true)", rel, f, fi, ok, i)
			}
			for p, a := range f.Args {
				post := ir.Posting(p, args[p])
				var want []Fact
				for _, g := range facts {
					if g.Args[p] == a {
						want = append(want, g)
					}
				}
				if len(post) != len(want) {
					t.Fatalf("%s posting (%d,%q): %d entries, want %d", rel, p, a, len(post), len(want))
				}
				for j, pi := range post {
					if j > 0 && post[j] <= post[j-1] {
						t.Fatalf("%s posting (%d,%q) not ascending: %v", rel, p, a, post)
					}
					if !facts[pi].Equal(want[j]) {
						t.Fatalf("%s posting (%d,%q) entry %d mismatches the scan", rel, p, a, j)
					}
				}
			}
		}
	}
	// Domain mirrors ActiveDomain as a set.
	dom := make(map[string]bool)
	for _, id := range in.Domain() {
		if !in.IsDomainSym(id) {
			t.Fatalf("domain id %d not flagged by IsDomainSym", id)
		}
		dom[in.Syms.MustString(id)] = true
	}
	want := d.ActiveDomain()
	if len(dom) != len(want) {
		t.Fatalf("domain has %d constants, want %d", len(dom), len(want))
	}
	for _, c := range want {
		if !dom[c] {
			t.Fatalf("constant %q missing from interned domain", c)
		}
	}
}

func TestInternedColumnarInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		d := randomTestDB(rng, 5+rng.Intn(120))
		checkInternedMirrors(t, d)
	}
}

func TestInternedEmptyAndTiny(t *testing.T) {
	checkInternedMirrors(t, New())
	checkInternedMirrors(t, MustParse("R(a | b)"))
}

func TestInternedAbsentProbes(t *testing.T) {
	d := MustParse("R(a | b), R(a | c), S(b | d)")
	in := d.Interned()
	ir := in.Rel("R")
	if _, ok := ir.BlockOf([]uint32{intern.None}); ok {
		t.Fatal("BlockOf(None) resolved")
	}
	if ir.HasTuple([]uint32{intern.None, intern.None}) {
		t.Fatal("HasTuple(None, None) resolved")
	}
	if in.Rel("T") != nil {
		t.Fatal("absent relation resolved")
	}
	if in.IsDomainSym(intern.None) {
		t.Fatal("None is in the domain")
	}
	// The relation names are interned but (here) not fact arguments, so
	// they must not be domain symbols.
	rid, _ := in.Syms.Lookup("R")
	if in.IsDomainSym(rid) {
		t.Fatal("relation name leaked into the active domain")
	}
}

func TestInternedInvalidatedOnMutation(t *testing.T) {
	d := MustParse("R(a | b)")
	in1 := d.Interned()
	if err := d.Add(NewFact("R", 1, "a", "c")); err != nil {
		t.Fatal(err)
	}
	in2 := d.Interned()
	if in1 == in2 {
		t.Fatal("mutation did not invalidate the interned view")
	}
	checkInternedMirrors(t, d)
	d.Remove(NewFact("R", 1, "a", "c"))
	in3 := d.Interned()
	if in3 == in2 {
		t.Fatal("removal did not invalidate the interned view")
	}
	checkInternedMirrors(t, d)
}

func TestInternedSharedByClone(t *testing.T) {
	d := MustParse("R(a | b), S(a | c)")
	in := d.Interned()
	c := d.Clone()
	if c.Interned() != in {
		t.Fatal("clone rebuilt the interned view instead of sharing it")
	}
	// Mutating the clone privatizes: the clone rebuilds, the original keeps
	// its snapshot.
	if err := c.Add(NewFact("R", 1, "z", "w")); err != nil {
		t.Fatal(err)
	}
	if c.Interned() == in {
		t.Fatal("clone mutation did not invalidate its interned view")
	}
	if d.Interned() != in {
		t.Fatal("clone mutation invalidated the original's interned view")
	}
	checkInternedMirrors(t, c)
	checkInternedMirrors(t, d)
}

// TestInternedSnapshotStableIDs is the save→reload property test: a
// snapshot round-trip preserves the global fact insertion order, so the
// reloaded database assigns the exact same dense ids — and, independently,
// the same digests (digests never consult the interned view).
func TestInternedSnapshotStableIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		d := randomTestDB(rng, 5+rng.Intn(100))
		var buf bytes.Buffer
		if err := d.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if d.Digest() != r.Digest() {
			t.Fatal("digest changed across snapshot round-trip")
		}
		din, rin := d.Interned(), r.Interned()
		if din.Syms.Len() != rin.Syms.Len() {
			t.Fatalf("symbol count changed: %d → %d", din.Syms.Len(), rin.Syms.Len())
		}
		for id := 0; id < din.Syms.Len(); id++ {
			a, b := din.Syms.MustString(uint32(id)), rin.Syms.MustString(uint32(id))
			if a != b {
				t.Fatalf("id %d changed meaning across reload: %q → %q", id, a, b)
			}
		}
		checkInternedMirrors(t, r)
	}
}
