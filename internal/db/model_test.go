package db

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// orderModel is the reference for a database's contents and orders: a
// plain fact list and block list kept by the rules the database documents.
// An insert appends the fact, and its block when the block is new; a delete
// drops the fact, and its block with its last fact, so a block that is
// recreated re-enters the block order at the end.
type orderModel struct {
	facts  []Fact
	blocks []string // Fact.BlockID, in block order
}

func (m *orderModel) clone() *orderModel {
	return &orderModel{facts: slices.Clone(m.facts), blocks: slices.Clone(m.blocks)}
}

// sigOK reports whether f has the signature of its relation's facts, or
// the relation has none.
func (m *orderModel) sigOK(f Fact) bool {
	for _, g := range m.facts {
		if g.Rel == f.Rel {
			return len(g.Args) == len(f.Args) && g.KeyLen == f.KeyLen
		}
	}
	return true
}

func (m *orderModel) has(f Fact) bool { return slices.IndexFunc(m.facts, f.Equal) >= 0 }

// add mirrors Add; false when Add must reject f.
func (m *orderModel) add(f Fact) bool {
	if !m.sigOK(f) {
		return false
	}
	if m.has(f) {
		return true
	}
	if !slices.Contains(m.blocks, f.BlockID()) {
		m.blocks = append(m.blocks, f.BlockID())
	}
	m.facts = append(m.facts, f)
	return true
}

// remove mirrors Remove.
func (m *orderModel) remove(f Fact) bool {
	i := slices.IndexFunc(m.facts, f.Equal)
	if i < 0 {
		return false
	}
	m.facts = slices.Delete(m.facts, i, i+1)
	bid := f.BlockID()
	if len(m.block(bid)) == 0 {
		m.blocks = slices.DeleteFunc(m.blocks, func(b string) bool { return b == bid })
	}
	return true
}

// removeBlock mirrors RemoveBlock.
func (m *orderModel) removeBlock(f Fact) int {
	if !m.sigOK(f) {
		return 0
	}
	blk := m.block(f.BlockID())
	for _, g := range blk {
		m.remove(g)
	}
	return len(blk)
}

// block returns the facts of block bid in insertion order.
func (m *orderModel) block(bid string) []Fact {
	var out []Fact
	for _, f := range m.facts {
		if f.BlockID() == bid {
			out = append(out, f)
		}
	}
	return out
}

// modelRels are the relations modelFact draws from, plus one never drawn.
var modelRels = []string{"R", "S", "B", "X"}

// modelFact draws a fact from two bytes: R(k | v) and S(k1, k2 | v) over
// four constants, a large block B(k | v) of up to 40 facts, and R(k, v)
// with the key length R's other facts do not have.
func modelFact(a, b byte) Fact {
	c := func(n byte) string { return fmt.Sprintf("c%d", n) }
	switch a % 4 {
	case 0:
		return NewFact("R", 1, c(b%4), c(b/4%4))
	case 1:
		return NewFact("S", 2, c(b%2), c(b/2%2), c(b/4%4))
	case 2:
		return NewFact("B", 1, "k", c(b%40))
	default:
		return NewFact("R", 2, c(b%4), c(b/4%4))
	}
}

// checkModel fails unless d reads exactly as m on every reader of contents
// and order.
func checkModel(t *testing.T, d *DB, m *orderModel) {
	t.Helper()
	if d.Len() != len(m.facts) || d.NumBlocks() != len(m.blocks) {
		t.Fatalf("Len %d NumBlocks %d, model %d and %d", d.Len(), d.NumBlocks(), len(m.facts), len(m.blocks))
	}
	if !slices.EqualFunc(d.Facts(), m.facts, Fact.Equal) {
		t.Fatalf("Facts %v, model %v", d.Facts(), m.facts)
	}
	blocks := d.Blocks()
	if len(blocks) != len(m.blocks) {
		t.Fatalf("%d blocks, model %d", len(blocks), len(m.blocks))
	}
	var text bytes.Buffer
	for i, bid := range m.blocks {
		want := m.block(bid)
		if !slices.EqualFunc(blocks[i], want, Fact.Equal) {
			t.Fatalf("block %d is %v, model %v", i, blocks[i], want)
		}
		if got := d.Block(want[0]); !slices.EqualFunc(got, want, Fact.Equal) {
			t.Fatalf("Block(%v) = %v, model %v", want[0], got, want)
		}
		for _, f := range want {
			text.WriteString(f.String() + "\n")
		}
	}
	if d.String() != text.String() {
		t.Fatalf("String:\n%s\nmodel:\n%s", d.String(), text.String())
	}
	var rels []string
	for _, rel := range modelRels {
		var facts []Fact
		for _, f := range m.facts {
			if f.Rel == rel {
				facts = append(facts, f)
			}
		}
		var bids []string
		for _, bid := range m.blocks {
			if m.block(bid)[0].Rel == rel {
				bids = append(bids, bid)
			}
		}
		if facts != nil {
			rels = append(rels, rel)
		}
		if !slices.EqualFunc(d.FactsOf(rel), facts, Fact.Equal) {
			t.Fatalf("FactsOf(%s) = %v, model %v", rel, d.FactsOf(rel), facts)
		}
		if !slices.Equal(d.BlockIDs(rel), bids) {
			t.Fatalf("BlockIDs(%s) = %v, model %v", rel, d.BlockIDs(rel), bids)
		}
	}
	if slices.Sort(rels); !slices.Equal(d.Relations(), rels) {
		t.Fatalf("Relations %v, model %v", d.Relations(), rels)
	}
	for a := byte(0); a < 4; a++ {
		for _, b := range []byte{0, 5, 10, 15, 39} {
			if f := modelFact(a, b); d.Has(f) != m.has(f) {
				t.Fatalf("Has(%v) = %v, model %v", f, d.Has(f), m.has(f))
			}
		}
	}
	if got, want := d.Digest(), MustFromFacts(m.facts...).Digest(); got != want {
		t.Fatalf("Digest %s, a fresh build of the model %s", got, want)
	}
}

// sameIDs fails unless got and want intern every symbol to the same id and
// hold every relation's facts in the same columns.
func sameIDs(t *testing.T, got, want *Interned) {
	t.Helper()
	if got.Syms.Len() != want.Syms.Len() || !slices.Equal(got.Domain(), want.Domain()) {
		t.Fatalf("%d symbols and domain %v, want %d and %v", got.Syms.Len(), got.Domain(), want.Syms.Len(), want.Domain())
	}
	for id := uint32(0); id < uint32(want.Syms.Len()); id++ {
		if g, w := got.Syms.MustString(id), want.Syms.MustString(id); g != w {
			t.Fatalf("symbol %d is %q, want %q", id, g, w)
		}
	}
	for name, w := range want.rels {
		if g := got.Rel(name); g == nil || !slices.EqualFunc(g.Cols, w.Cols, slices.Equal[[]uint32]) {
			t.Fatalf("relation %s: columns differ", name)
		}
	}
}

// FuzzMutationsMatchModel runs a random program of Add, Remove,
// RemoveBlock and Clone against live databases — the newest and older
// clones alike — and holds each database to its orderModel after every
// step: contents, every order and the digest. The database a step mutates
// must also survive a snapshot round trip with the same interned ids, and
// every other live database must not have moved. FuzzParseEquivalence
// holds two builders of the same storage to each other; this holds the
// storage to a model that keeps no sequence numbers at all.
func FuzzMutationsMatchModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 5, 4, 0, 0, 0, 2, 1, 0, 1, 0, 0, 0, 1})
	f.Add([]byte{5, 0, 2, 39, 4, 0, 0, 0, 2, 1, 2, 7, 0, 0, 2, 7, 3, 0, 2, 3})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 8, 2, 0, 1, 0, 0, 0, 1, 0, 3, 0, 3, 0, 0, 0, 3, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		type live struct {
			d *DB
			m *orderModel
		}
		dbs := []live{{New(), &orderModel{}}}
		if len(program) > 4*64 {
			program = program[:4*64]
		}
		for len(program) >= 4 {
			op, at, fa, fb := program[0], int(program[1])%len(dbs), program[2], program[3]
			program = program[4:]
			d, m := dbs[at].d, dbs[at].m
			fact := modelFact(fa, fb)
			switch op % 6 {
			case 0, 1:
				err := d.Add(fact)
				if ok := m.add(fact); ok != (err == nil) {
					t.Fatalf("Add(%v) = %v, model accepts: %v", fact, err, ok)
				}
			case 2:
				if got, want := d.Remove(fact), m.remove(fact); got != want {
					t.Fatalf("Remove(%v) = %v, model %v", fact, got, want)
				}
			case 3:
				if got, want := d.RemoveBlock(fact), m.removeBlock(fact); got != want {
					t.Fatalf("RemoveBlock(%v) = %d, model %d", fact, got, want)
				}
			case 4:
				if len(dbs) < 8 {
					dbs = append(dbs, live{d.Clone(), m.clone()})
				}
			case 5: // fill the large block
				for v := byte(0); v <= fb%40; v++ {
					g := modelFact(2, v)
					if err := d.Add(g); err != nil || !m.add(g) {
						t.Fatalf("Add(%v): %v", g, err)
					}
				}
			}
			for _, l := range dbs {
				checkModel(t, l.d, l.m)
			}
			var snap bytes.Buffer
			if err := d.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			back, err := ReadSnapshot(&snap)
			if err != nil {
				t.Fatal(err)
			}
			// The snapshot holds the facts in order; its blocks open in the
			// order of their first facts.
			reloaded := &orderModel{}
			for _, g := range m.facts {
				reloaded.add(g)
			}
			checkModel(t, back, reloaded)
			sameIDs(t, back.Interned(), d.Interned())
		}
	})
}

// TestConcurrentReadersShareDerivedOrders races readers of a database whose
// orders, digests and view a mutation dropped: they derive them lazily and
// publish one of each, and clones taken by readers stay independent of the
// database and of each other. Run it under -race.
func TestConcurrentReadersShareDerivedOrders(t *testing.T) {
	base := MustParse(solveInlineText(3))
	d := base.Clone()
	victim := d.Facts()[0]
	if !d.Remove(victim) || d.Add(victim) != nil {
		t.Fatal("could not move the first fact to the end")
	}
	want := &orderModel{}
	for _, f := range base.Facts() {
		want.add(f)
	}
	want.remove(victim)
	want.add(victim)
	done := make(chan *DB)
	for i := 0; i < 8; i++ {
		go func() {
			d.Facts()
			_ = d.String()
			d.Digest()
			d.Interned()
			c := d.Clone()
			if err := c.Add(NewFact("R", 1, "reader", fmt.Sprint(i))); err != nil {
				panic(err)
			}
			done <- c
		}()
	}
	for i := 0; i < 8; i++ {
		if c := <-done; c.Len() != d.Len()+1 {
			t.Errorf("a reader's clone holds %d facts, want %d", c.Len(), d.Len()+1)
		}
	}
	checkModel(t, d, want)
}
