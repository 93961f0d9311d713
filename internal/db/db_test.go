package db

import (
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"github.com/cqa-go/certainty/internal/cq"
)

// conferenceDB returns the Fig. 1 uncertain database.
func conferenceDB() *DB {
	return MustParse(`
		C(PODS, 2016 | Rome)
		C(PODS, 2016 | Paris)
		C(KDD, 2017 | Rome)
		R(PODS | A)
		R(KDD | A)
		R(KDD | B)
	`)
}

func TestFactBasics(t *testing.T) {
	f := NewFact("R", 1, "a", "b")
	g := NewFact("R", 1, "a", "c")
	h := NewFact("R", 1, "x", "b")
	if !f.KeyEqual(g) || f.KeyEqual(h) {
		t.Error("KeyEqual wrong")
	}
	if f.Equal(g) || !f.Equal(NewFact("R", 1, "a", "b")) {
		t.Error("Equal wrong")
	}
	if f.BlockID() != g.BlockID() || f.BlockID() == h.BlockID() {
		t.Error("BlockID wrong")
	}
	if f.ID() == g.ID() {
		t.Error("distinct facts must have distinct IDs")
	}
	if got := f.String(); got != "R(a | b)" {
		t.Errorf("String = %q", got)
	}
	weird := NewFact("R", 1, "hello world", "1a", "3.5")
	if got := weird.String(); got != "R('hello world' | '1a', 3.5)" {
		t.Errorf("String with quoting = %q", got)
	}
}

func TestFactIDUnambiguous(t *testing.T) {
	// Constants containing delimiters must not collide.
	a := NewFact("R", 2, "a:b", "c")
	b := NewFact("R", 2, "a", "b:c")
	if a.ID() == b.ID() || a.BlockID() == b.BlockID() {
		t.Error("length-prefixed encoding must disambiguate")
	}
}

func TestFactAtomRoundTrip(t *testing.T) {
	f := NewFact("R", 1, "a", "b")
	a := f.Atom()
	if a.Rel != "R" || a.KeyLen != 1 || !a.IsGround() {
		t.Errorf("Atom = %v", a)
	}
	g, ok := FactFromAtom(a)
	if !ok || !g.Equal(f) {
		t.Errorf("FactFromAtom round trip failed: %v %v", g, ok)
	}
	if _, ok := FactFromAtom(cq.NewAtom("R", 1, cq.Var("x"))); ok {
		t.Error("FactFromAtom must reject variables")
	}
}

func TestDBAddDedupAndSignature(t *testing.T) {
	d := New()
	if err := d.Add(NewFact("R", 1, "a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(NewFact("R", 1, "a", "b")); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Errorf("dedup failed: %d", d.Len())
	}
	if err := d.Add(Fact{Rel: "R", KeyLen: 2, Args: []string{"a", "b"}}); err == nil {
		t.Error("signature conflict should be rejected")
	}
	if err := d.Add(Fact{Rel: "S", KeyLen: 0, Args: []string{"a"}}); err == nil {
		t.Error("invalid fact should be rejected")
	}
}

func TestConferenceDBShape(t *testing.T) {
	d := conferenceDB()
	if d.Len() != 6 {
		t.Fatalf("Fig.1 has 6 facts, got %d", d.Len())
	}
	if d.NumBlocks() != 4 {
		t.Errorf("Fig.1 has 4 blocks, got %d", d.NumBlocks())
	}
	if d.IsConsistent() {
		t.Error("Fig.1 database is inconsistent")
	}
	// "The database has four repairs."
	if d.NumRepairs().Cmp(big.NewInt(4)) != 0 {
		t.Errorf("Fig.1 has 4 repairs, got %v", d.NumRepairs())
	}
	blk := d.Block(NewFact("C", 2, "PODS", "2016", "anything"))
	if len(blk) != 2 {
		t.Errorf("PODS-2016 block has 2 facts, got %d", len(blk))
	}
	if got := len(d.FactsOf("R")); got != 3 {
		t.Errorf("R has 3 facts, got %d", got)
	}
	rels := d.Relations()
	if len(rels) != 2 || rels[0] != "C" || rels[1] != "R" {
		t.Errorf("Relations = %v", rels)
	}
	if ar, kl, ok := d.Signature("C"); !ok || ar != 3 || kl != 2 {
		t.Errorf("Signature(C) = %d %d %v", ar, kl, ok)
	}
	dom := d.ActiveDomain()
	if len(dom) != 7 { // PODS KDD 2016 2017 Rome Paris A B → 8? count: PODS,2016,Rome,Paris,KDD,2017,A,B = 8
		// fixed below; keep the informative failure
		t.Logf("active domain: %v", dom)
	}
}

func TestActiveDomain(t *testing.T) {
	d := conferenceDB()
	dom := d.ActiveDomain()
	want := []string{"2016", "2017", "A", "B", "KDD", "PODS", "Paris", "Rome"}
	if len(dom) != len(want) {
		t.Fatalf("ActiveDomain = %v", dom)
	}
	for i := range want {
		if dom[i] != want[i] {
			t.Fatalf("ActiveDomain = %v, want %v", dom, want)
		}
	}
}

func TestRepairEnumeration(t *testing.T) {
	d := conferenceDB()
	count := 0
	seen := map[string]bool{}
	d.EachRepair(func(r []Fact) bool {
		count++
		rd := RepairDB(r)
		if !rd.IsConsistent() {
			t.Error("repair not consistent")
		}
		if rd.NumBlocks() != d.NumBlocks() {
			t.Error("repair must pick one fact per block (maximality)")
		}
		seen[rd.String()] = true
		return true
	})
	if count != 4 || len(seen) != 4 {
		t.Errorf("expected 4 distinct repairs, got %d (%d distinct)", count, len(seen))
	}
}

func TestEachRepairEarlyStop(t *testing.T) {
	d := conferenceDB()
	count := 0
	completed := d.EachRepair(func(r []Fact) bool {
		count++
		return count < 2
	})
	if completed || count != 2 {
		t.Errorf("early stop failed: completed=%v count=%d", completed, count)
	}
}

func TestEmptyDB(t *testing.T) {
	d := New()
	if !d.IsConsistent() {
		t.Error("empty database is consistent")
	}
	if d.NumRepairs().Cmp(big.NewInt(1)) != 0 {
		t.Error("empty database has exactly one repair (the empty one)")
	}
	count := 0
	d.EachRepair(func(r []Fact) bool {
		count++
		if len(r) != 0 {
			t.Error("repair of empty database must be empty")
		}
		return true
	})
	if count != 1 {
		t.Errorf("expected 1 repair, got %d", count)
	}
}

func TestCloneRestrictWithoutBlock(t *testing.T) {
	d := conferenceDB()
	c := d.Clone()
	if !c.Equal(d) {
		t.Error("clone not equal")
	}
	c.Add(NewFact("R", 1, "ICDT", "A"))
	if d.Has(NewFact("R", 1, "ICDT", "A")) {
		t.Error("Clone aliases receiver")
	}
	onlyC := d.Restrict(func(f Fact) bool { return f.Rel == "C" })
	if onlyC.Len() != 3 {
		t.Errorf("Restrict: %d", onlyC.Len())
	}
	nb := d.WithoutBlock(NewFact("C", 2, "PODS", "2016", "x"))
	if nb.Len() != 4 {
		t.Errorf("WithoutBlock: %d", nb.Len())
	}
	if nb.Has(NewFact("C", 2, "PODS", "2016", "Rome")) {
		t.Error("block not removed")
	}
}

func TestUnion(t *testing.T) {
	a := MustParse("R(a | b)")
	b := MustParse("R(a | c), S(x | y)")
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 3 || u.NumBlocks() != 2 {
		t.Errorf("Union: len=%d blocks=%d", u.Len(), u.NumBlocks())
	}
	c := MustParse("R(a, b | c)") // signature conflict with a
	if _, err := Union(a, c); err == nil {
		t.Error("Union must reject signature conflicts")
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	if _, err := Parse("R(x | "); err == nil {
		t.Error("unclosed fact should fail")
	}
	if _, err := Parse("R(a|b), R(a,b|c)"); err == nil {
		t.Error("signature conflict should fail")
	}
}

func TestStringRoundTrip(t *testing.T) {
	d := conferenceDB()
	d2, err := Parse(d.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !d.Equal(d2) {
		t.Errorf("round trip failed:\n%s\nvs\n%s", d, d2)
	}
	// Constants needing quoting survive the round trip too.
	w := MustFromFacts(NewFact("R", 1, "hello world", "it's", `a\b`, "⟨x,y⟩"))
	w2, err := Parse(w.String())
	if err != nil {
		t.Fatalf("reparse quoted: %v (%q)", err, w.String())
	}
	if !w.Equal(w2) {
		t.Errorf("quoted round trip failed: %q vs %q", w.String(), w2.String())
	}
}

func TestBlocksOrderDeterministic(t *testing.T) {
	d := conferenceDB()
	blocks := d.Blocks()
	if len(blocks) != 4 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	if blocks[0][0].Rel != "C" || blocks[0][0].Args[0] != "PODS" {
		t.Errorf("first block should be PODS-2016: %v", blocks[0])
	}
	if !strings.HasPrefix(d.String(), "C(PODS, 2016 | ") {
		t.Errorf("String order: %q", d.String())
	}
}

// Property: number of enumerated repairs equals the product of block sizes,
// and every repair is a maximal consistent subset.
func TestQuickRepairCount(t *testing.T) {
	f := func(seed uint32) bool {
		r := seed
		next := func(n int) int {
			r = r*1664525 + 1013904223
			return int(r>>16) % n
		}
		d := New()
		numBlocks := next(4)
		total := 1
		for b := 0; b < numBlocks; b++ {
			size := 1 + next(3)
			total *= size
			for i := 0; i < size; i++ {
				d.Add(NewFact("R", 1, string(rune('a'+b)), string(rune('0'+i))))
			}
		}
		if d.NumRepairs().Cmp(big.NewInt(int64(total))) != 0 {
			return false
		}
		count := 0
		ok := true
		d.EachRepair(func(rep []Fact) bool {
			count++
			rd := RepairDB(rep)
			if !rd.IsConsistent() || rd.NumBlocks() != d.NumBlocks() {
				ok = false
			}
			return true
		})
		return ok && count == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRepairAt(t *testing.T) {
	d := conferenceDB()
	total := d.NumRepairs()
	// Collect repairs via enumeration and compare with random access.
	var enumerated []*DB
	d.EachRepair(func(r []Fact) bool {
		enumerated = append(enumerated, RepairDB(r))
		return true
	})
	for i := int64(0); i < total.Int64(); i++ {
		r, err := d.RepairAt(big.NewInt(i))
		if err != nil {
			t.Fatal(err)
		}
		if !RepairDB(r).Equal(enumerated[i]) {
			t.Errorf("RepairAt(%d) disagrees with enumeration order", i)
		}
	}
	if _, err := d.RepairAt(big.NewInt(-1)); err == nil {
		t.Error("negative index must fail")
	}
	if _, err := d.RepairAt(total); err == nil {
		t.Error("index == NumRepairs must fail")
	}
	// Empty database: single empty repair at index 0.
	empty := New()
	r, err := empty.RepairAt(big.NewInt(0))
	if err != nil || len(r) != 0 {
		t.Errorf("empty RepairAt: %v %v", r, err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := conferenceDB()
	var buf strings.Builder
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) {
		t.Error("snapshot round trip changed the database")
	}
	if got.NumBlocks() != d.NumBlocks() {
		t.Error("indexes not rebuilt")
	}
	// Corrupt input fails cleanly.
	if _, err := ReadSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage must be rejected")
	}
	// Empty database round-trips.
	var empty strings.Builder
	if err := New().WriteSnapshot(&empty); err != nil {
		t.Fatal(err)
	}
	e, err := ReadSnapshot(strings.NewReader(empty.String()))
	if err != nil || e.Len() != 0 {
		t.Errorf("empty snapshot: %v %v", e, err)
	}
}

func TestRemove(t *testing.T) {
	d := conferenceDB()
	if !d.Remove(NewFact("C", 2, "PODS", "2016", "Paris")) {
		t.Fatal("fact should be present")
	}
	if d.Remove(NewFact("C", 2, "PODS", "2016", "Paris")) {
		t.Error("double remove should report false")
	}
	if d.Len() != 5 || d.NumBlocks() != 4 {
		t.Errorf("after remove: %d facts, %d blocks", d.Len(), d.NumBlocks())
	}
	if d.NumRepairs().Cmp(big.NewInt(2)) != 0 {
		t.Errorf("repairs = %v", d.NumRepairs())
	}
	// Indexes rebuilt: block lookups still work.
	if len(d.Block(NewFact("C", 2, "PODS", "2016", "x"))) != 1 {
		t.Error("block index stale")
	}
	// Removing the last fact of a block drops the block.
	if n := d.RemoveBlock(NewFact("R", 1, "KDD", "x")); n != 2 {
		t.Errorf("RemoveBlock = %d", n)
	}
	if d.NumBlocks() != 3 {
		t.Errorf("blocks = %d", d.NumBlocks())
	}
	if n := d.RemoveBlock(NewFact("Z", 1, "none")); n != 0 {
		t.Errorf("missing block removal = %d", n)
	}
	// Signature bookkeeping: after removing all R facts, R can be re-added
	// with any signature? We keep the conservative behavior: signatures
	// persist only through facts, so a fully removed relation resets.
	d2 := MustParse("R(a | b)")
	d2.Remove(NewFact("R", 1, "a", "b"))
	if err := d2.Add(NewFact("R", 2, "a", "b", "c")); err != nil {
		t.Errorf("signature should reset after full removal: %v", err)
	}
}

// TestKeyLengthMismatchIsAbsent: Fact.ID leaves the key length out, so
// R(a, b) and R(a | b) share one ID. A fact whose [arity, key length]
// differs from its relation's signature must still read as absent: Remove
// and RemoveBlock leave the database whole, and Equal tells the two apart.
func TestKeyLengthMismatchIsAbsent(t *testing.T) {
	d := MustParse("R(a | b) R(a | c)")
	want := d.String()
	allKey := NewFact("R", 2, "a", "b") // R(a, b)
	if d.Has(allKey) {
		t.Errorf("Has(%v) on a store holding R(a | b)", allKey)
	}
	if d.Remove(allKey) {
		t.Errorf("Remove(%v) reported a removal", allKey)
	}
	if n := d.RemoveBlock(allKey); n != 0 {
		t.Errorf("RemoveBlock(%v) removed %d facts", allKey, n)
	}
	if d.Len() != 2 || d.String() != want || len(d.FactsOf("R")) != 2 || !d.Has(NewFact("R", 1, "a", "b")) {
		t.Fatalf("database changed: %d facts, FactsOf(R) %v, text %q, want %q", d.Len(), d.FactsOf("R"), d.String(), want)
	}
	if MustParse("R(a | b)").Equal(MustParse("R(a, b)")) {
		t.Error("R(a | b) and R(a, b) compare equal")
	}

	// Another arity with the same key names the same block ID.
	wide := MustParse("R(a | b, c)")
	if n := wide.RemoveBlock(NewFact("R", 1, "a", "b")); n != 0 || wide.Len() != 1 {
		t.Errorf("RemoveBlock of a shorter fact removed %d facts, %d left", n, wide.Len())
	}

	// The stored fact itself still goes.
	if !d.Remove(NewFact("R", 1, "a", "b")) || d.Len() != 1 || d.Has(NewFact("R", 1, "a", "b")) {
		t.Fatalf("Remove(R(a | b)) failed: %q", d.String())
	}
	if got := d.Digest(); got != MustParse(d.String()).Digest() {
		t.Errorf("digest after removal %s, want a fresh parse's %s", got, MustParse(d.String()).Digest())
	}
}
