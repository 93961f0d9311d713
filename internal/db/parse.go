package db

import (
	"fmt"
	"strings"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/intern"
)

// Parse reads a database in the textual format: one fact per line (or
// comma-separated), e.g.
//
//	C(PODS, 2016 | Rome)
//	C(PODS, 2016 | Paris)
//	R(PODS | A)
//
// Bare identifiers and numbers denote constants; quoted strings are also
// constants. Variables are not allowed in database files.
//
// Parse builds the database once: each scanned atom goes straight into the
// interned columns (DB.Interned), where facts are deduplicated and grouped
// into blocks on their ids, and the string side is then cut from those
// columns in a few allocations per relation.
//
// Parse is hardened against adversarial input: NUL bytes are rejected up
// front, a row is rejected as soon as it grows past MaxArity arguments,
// signature conflicts between rows of the same relation are reported as
// errors, and no input can panic.
func Parse(input string) (*DB, error) {
	if i := strings.IndexByte(input, 0); i >= 0 {
		return nil, fmt.Errorf("db: input contains a NUL byte at offset %d", i)
	}
	in := newInterned(0)
	ords := make(map[string]int) // relation → ordinal, in order of appearance
	var names []string
	var irs []*IRel
	// The relation ordinal of each new fact and of each new block, in
	// insertion order: the k-th entry naming a relation is its fact k, or
	// its block k.
	var facts, blocks []uint32
	var row []uint32
	s := cq.NewScanner(input)
	for s.Scan(MaxArity) {
		ri, ok := ords[s.Rel]
		if !ok {
			ri = len(names)
			ords[s.Rel] = ri
			names = append(names, s.Rel)
			irs = append(irs, newIRel([2]int{len(s.Args), s.KeyLen}, 0, 0))
			in.rels[s.Rel] = irs[ri]
		}
		ir := irs[ri]
		if ir.Arity != len(s.Args) || ir.KeyLen != s.KeyLen {
			return nil, fmt.Errorf("line %d: db: relation %s used with signatures [%d,%d] and [%d,%d]",
				s.Line(), s.Rel, ir.Arity, ir.KeyLen, len(s.Args), s.KeyLen)
		}
		row = in.intern(row[:0], s.Rel, s.Args)
		if fresh, newBlock := ir.add(row); fresh {
			facts = append(facts, uint32(ri))
			if newBlock {
				blocks = append(blocks, uint32(ri))
			}
		}
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	in.finish()
	d := New()
	if len(facts) > 0 { // an empty database keeps New's nil slices
		d.facts, d.blockOrder = make([]Fact, len(facts)), make([]blockRef, len(blocks))
	}
	rels := make([]*relation, len(names))
	for ri, name := range names {
		rels[ri] = relationOf(name, irs[ri], in.Syms)
		d.rels[name] = rels[ri]
	}
	next := make([]int, len(names))
	for i, ri := range facts {
		d.facts[i] = rels[ri].facts[next[ri]]
		next[ri]++
	}
	clear(next)
	for i, ri := range blocks {
		d.blockOrder[i] = blockRef{rel: names[ri], bid: rels[ri].blockOrder[next[ri]]}
		next[ri]++
	}
	d.interned.Store(in)
	return d, nil
}

// relationOf builds a relation's string side from its columns: the
// arguments are cut from one []string, the Fact.ID keys from one string
// (each BlockID is a prefix of its first fact's ID), and the blocks from one
// []Fact laid out block by block, each with cap == len so that an append
// copies.
func relationOf(name string, ir *IRel, syms *intern.Table) *relation {
	n, nb, arity := ir.NumFacts(), ir.NumBlocks(), ir.Arity
	r := &relation{
		sig:        [2]int{arity, ir.KeyLen},
		facts:      make([]Fact, n),
		ids:        make(map[string]int, n),
		blocks:     make(map[string][]Fact, nb),
		blockOrder: make([]string, nb),
		version:    versions.Add(1),
	}
	args := make([]string, n*arity)
	size := 0
	for fi := range r.facts {
		a := args[fi*arity : (fi+1)*arity : (fi+1)*arity]
		for p := range a {
			a[p] = syms.MustString(ir.Cols[p][fi])
		}
		r.facts[fi] = Fact{Rel: name, KeyLen: ir.KeyLen, Args: a}
		size += idLen(name, a)
	}
	buf := make([]byte, 0, size)
	for _, f := range r.facts {
		buf = appendID(buf, f.Rel, f.Args)
	}
	keys := string(buf)
	grouped := make([]Fact, n) // the facts in block order
	for i, fi := range ir.ByBlock {
		grouped[i] = r.facts[fi]
	}
	at := 0
	for fi, f := range r.facts {
		id := keys[at : at+idLen(name, f.Args)]
		at += len(id)
		r.ids[id] = fi
		b := ir.BlockOfFact[fi]
		lo, hi := ir.BlockOff[b], ir.BlockOff[b+1]
		if ir.ByBlock[lo] == uint32(fi) { // the block's first fact
			bid := id[:idLen(name, f.KeyArgs())]
			r.blockOrder[b] = bid
			r.blocks[bid] = grouped[lo:hi:hi]
		}
	}
	return r
}

// MustParse is Parse panicking on error.
func MustParse(input string) *DB {
	d, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return d
}
