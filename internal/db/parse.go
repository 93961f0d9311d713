package db

import (
	"cmp"
	"fmt"
	"slices"
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
// columns in a few allocations per relation, with the database's order
// memoized as it is read.
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
	owner := d.owner.Load()
	o := &order{owner: owner}
	if len(facts) > 0 { // an empty database keeps nil slices
		o.facts, o.blocks = make([]Fact, len(facts)), make([]*block, len(blocks))
	}
	// Fact i and block j of the input take sequence numbers i and j. fseq
	// and bseq list them relation by relation: relation ri's facts from
	// fat[ri] to fat[ri+1], its blocks from bat[ri] to bat[ri+1].
	n := len(names)
	fseq, bseq := make([]uint64, len(facts)), make([]uint64, len(blocks))
	fat, bat, next := make([]int, n+1), make([]int, n+1), make([]int, n)
	for ri, ir := range irs {
		fat[ri+1] = fat[ri] + ir.NumFacts()
		bat[ri+1] = bat[ri] + ir.NumBlocks()
	}
	for i, ri := range facts {
		fseq[fat[ri]+next[ri]] = uint64(i)
		next[ri]++
	}
	clear(next)
	for j, ri := range blocks {
		bseq[bat[ri]+next[ri]] = uint64(j)
		next[ri]++
	}
	for ri, name := range names {
		d.rels[name] = relationOf(name, irs[ri], in.Syms, owner, fseq[fat[ri]:fat[ri+1]], bseq[bat[ri]:bat[ri+1]], o)
	}
	d.nfacts, d.nblocks, d.next = len(facts), len(blocks), uint64(len(facts))
	d.order.Store(o)
	d.interned.Store(in)
	return d, nil
}

// relationOf builds a relation's string side from its columns in a few
// allocations: the arguments are cut from one []string, the block IDs
// from one string, the facts (laid out block by block) and their sequence
// numbers from one slice each, the blocks from one []block, and the trie
// from two slabs. fseq and bseq give the sequence numbers of the
// relation's facts and blocks, in its own order; each fact and block also
// takes its place in the database's order o.
func relationOf(name string, ir *IRel, syms *intern.Table, owner uint64, fseq, bseq []uint64, o *order) *relation {
	n, nb, arity := ir.NumFacts(), ir.NumBlocks(), ir.Arity
	r := &relation{sig: [2]int{arity, ir.KeyLen}, owner: owner, facts: n, blocks: nb, version: versions.Add(1)}
	args := make([]string, n*arity)
	for fi := 0; fi < n; fi++ {
		a := args[fi*arity : (fi+1)*arity]
		for p := range a {
			a[p] = syms.MustString(ir.Cols[p][fi])
		}
	}
	facts, seqs := make([]Fact, n), make([]uint64, n)
	for i, fi := range ir.ByBlock {
		lo := int(fi) * arity
		facts[i] = Fact{Rel: name, KeyLen: ir.KeyLen, Args: args[lo : lo+arity : lo+arity]}
		seqs[i] = fseq[fi]
		o.facts[seqs[i]] = facts[i]
	}
	size := 0
	for b := 0; b < nb; b++ {
		size += idLen(name, facts[ir.BlockOff[b]].KeyArgs())
	}
	buf := make([]byte, 0, size)
	for b := 0; b < nb; b++ {
		buf = appendID(buf, name, facts[ir.BlockOff[b]].KeyArgs())
	}
	ids, at := string(buf), 0
	blks, byHash := make([]block, nb), make([]*block, nb)
	for b, hi := range ir.BlockOff[1:] {
		lo := ir.BlockOff[b]
		id := ids[at : at+idLen(name, facts[lo].KeyArgs())]
		at += len(id)
		blk := &blks[b]
		*blk = block{id: id, hash: blockHash(id), seq: bseq[b], owner: owner,
			facts: facts[lo:hi:hi], seqs: seqs[lo:hi:hi]} // clipped: an append copies
		if hi-lo > blockScanMax {
			blk.index = make(map[string]struct{}, hi-lo)
			for _, f := range blk.facts {
				blk.index[f.ID()] = struct{}{}
			}
		}
		byHash[b] = blk
		o.blocks[blk.seq] = blk
	}
	slices.SortFunc(byHash, func(a, b *block) int { return cmp.Compare(a.hash, b.hash) })
	r.root = buildTrie(byHash, owner)
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
