package db

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

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
// Parse builds only the interned columns (DB.Interned): each scanned atom
// goes straight into them, where facts are deduplicated and grouped into
// blocks on their ids, and every relation draws its version. The string
// side (each relation's trie of blocks, its Fact values and the memoized
// orders) is cut from the columns by the first call that reads it, so a
// solve that runs on the columns alone never builds it.
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
	vs := make([]uint64, len(names))
	for ri := range vs {
		vs[ri] = versions.Add(1)
	}
	d := &DB{nfacts: len(facts), nblocks: len(blocks), next: uint64(len(facts)),
		cols: &columns{syms: in.Syms, ords: ords, names: names, irs: irs, versions: vs, facts: facts, blocks: blocks}}
	d.owner.Store(owners.Add(1))
	d.interned.Store(in)
	return d, nil
}

// columns is what Parse keeps of a database to cut its string side from
// the interned columns on first read: the relations in order of
// appearance with their versions, and the relation ordinal of each fact
// and of each block in insertion order.
type columns struct {
	syms     *intern.Table
	ords     map[string]int // relation → ordinal
	names    []string
	irs      []*IRel
	versions []uint64
	// The k-th entry naming a relation is its fact k, or its block k.
	facts, blocks []uint32

	once sync.Once
	side *stringSide // set once, by the first reader
}

// stringSide is a parsed database's string side: its relations and their
// orders, built together.
type stringSide struct {
	rels  map[string]*relation
	order *order
}

// built returns d's string side, building it on the first call; later and
// concurrent callers wait for that one build and share it. The structures
// take d's generation at the build.
func (c *columns) built(d *DB) *stringSide {
	c.once.Do(func() {
		stringBuilds.Inc()
		c.side = c.build(d.owner.Load())
	})
	return c.side
}

// build cuts the string side from the columns: fact i and block j of the
// input take sequence numbers i and j, relation by relation.
func (c *columns) build(owner uint64) *stringSide {
	o := &order{owner: owner}
	if len(c.facts) > 0 { // an empty database keeps nil slices
		o.facts, o.blocks = make([]Fact, len(c.facts)), make([]*block, len(c.blocks))
	}
	// fseq and bseq list the sequence numbers relation by relation:
	// relation ri's facts from fat[ri] to fat[ri+1], its blocks from
	// bat[ri] to bat[ri+1].
	n := len(c.names)
	fseq, bseq := make([]uint64, len(c.facts)), make([]uint64, len(c.blocks))
	fat, bat, next := make([]int, n+1), make([]int, n+1), make([]int, n)
	for ri, ir := range c.irs {
		fat[ri+1] = fat[ri] + ir.NumFacts()
		bat[ri+1] = bat[ri] + ir.NumBlocks()
	}
	for i, ri := range c.facts {
		fseq[fat[ri]+next[ri]] = uint64(i)
		next[ri]++
	}
	clear(next)
	for j, ri := range c.blocks {
		bseq[bat[ri]+next[ri]] = uint64(j)
		next[ri]++
	}
	rels := make(map[string]*relation, n)
	for ri, name := range c.names {
		rels[name] = relationOf(name, c.irs[ri], c.syms, owner, c.versions[ri], fseq[fat[ri]:fat[ri+1]], bseq[bat[ri]:bat[ri+1]], o)
	}
	return &stringSide{rels: rels, order: o}
}

// relationOf builds a relation's string side, at the given version, from
// its columns in a few allocations: the arguments are cut from one
// []string, the block IDs from one string, the facts (laid out block by
// block) and their sequence numbers from one slice each, the blocks from
// one []block, and the trie from two slabs. fseq and bseq give the
// sequence numbers of the relation's facts and blocks, in its own order;
// each fact and block also takes its place in the database's order o.
func relationOf(name string, ir *IRel, syms *intern.Table, owner, version uint64, fseq, bseq []uint64, o *order) *relation {
	n, nb, arity := ir.NumFacts(), ir.NumBlocks(), ir.Arity
	r := &relation{sig: [2]int{arity, ir.KeyLen}, owner: owner, facts: n, blocks: nb, version: version}
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
