package db

import (
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"slices"
	"sync/atomic"
)

// relation holds one relation's blocks: a persistent trie (trie.go) from
// block ID to an immutable block, plus the relation's version and change
// log. Relations are shared between a database and its clones by pointer;
// a mutation by a database that does not own the relation copies the
// struct, sharing the trie and path-copying only what the write touches,
// so a write copies O(log n) trie nodes, the touched block and the bounded
// change log, and every other relation is carried over untouched.
//
// A relation keeps no order: the orders readers see are derived from the
// blocks' sequence numbers and memoized on the database (DB.order). Its
// content digest is composed from its blocks on first use and memoized
// until a mutation touches the relation.
type relation struct {
	sig   [2]int
	owner uint64 // the database generation that may change it in place
	root  *node  // Fact.BlockID → *block
	// The numbers of facts and blocks.
	facts, blocks int

	// version names the relation's content: every mutation, in place or on
	// a copy, draws a new one from the process-wide counter, so two
	// relations with one version hold the same facts.
	version uint64
	// The change log: the block each recent mutation touched (changed) and
	// the version it started from (since), oldest first. Versions along one
	// relation's history increase, so since is sorted. It keeps between
	// ChangeLogLen/2 and ChangeLogLen entries once full.
	since   []uint64
	changed []string

	// digest memoizes digestOf until a mutation of this relation.
	digest atomic.Pointer[string]
}

// ChangeLogLen bounds a relation's change log: ChangedBlocks reaches back
// at least ChangeLogLen/2 and at most ChangeLogLen mutations. A reader that
// synced longer ago falls back to a full rescan of the relation.
const ChangeLogLen = 64

// versions is the process-wide relation version counter; 0 is never drawn,
// so it can stand for "absent".
var versions atomic.Uint64

func newRelation(sig [2]int, owner uint64) *relation {
	return &relation{sig: sig, owner: owner, version: versions.Add(1)}
}

// mutable returns a relation that owner may update in place: r itself when
// owner owns it, otherwise a copy for owner that shares r's trie and
// copies its change log.
func (r *relation) mutable(owner uint64) *relation {
	if r.owner == owner {
		r.digest.Store(nil)
		return r
	}
	indexInvalidations.Inc()
	return &relation{
		sig:     r.sig,
		owner:   owner,
		root:    r.root,
		facts:   r.facts,
		blocks:  r.blocks,
		version: r.version,
		since:   append(make([]uint64, 0, len(r.since)+1), r.since...),
		changed: append(make([]string, 0, len(r.changed)+1), r.changed...),
	}
}

// touch records a mutation of block bid: a new version, and a log entry
// naming the block and the version the mutation started from. Must only be
// called on a relation the caller owns.
func (r *relation) touch(bid string) {
	if len(r.since) == ChangeLogLen {
		n := copy(r.since, r.since[ChangeLogLen/2:])
		copy(r.changed, r.changed[ChangeLogLen/2:])
		clear(r.changed[n:])
		r.since, r.changed = r.since[:n], r.changed[:n]
	}
	r.since = append(r.since, r.version)
	r.changed = append(r.changed, bid)
	r.version = versions.Add(1)
}

// changedSince returns the blocks touched since the relation was at
// version v, oldest first and possibly repeated, or ok == false when the
// log does not reach back to v (or v is no version of this relation's
// history). The slice is the log's own, capacity-clipped.
func (r *relation) changedSince(v uint64) (bids []string, ok bool) {
	if v == r.version {
		return nil, true
	}
	i, found := slices.BinarySearch(r.since, v)
	if !found {
		return nil, false
	}
	return r.changed[i:len(r.changed):len(r.changed)], true
}

// blockDigests returns every block of r and its content digest, in no
// particular order, hashed with one digester into one hex string.
func (r *relation) blockDigests() ([]*block, []string) {
	blks := make([]*block, 0, r.blocks)
	r.root.each(func(b *block) { blks = append(blks, b) })
	var g digester
	const width = 2 * sha256.Size
	hexes := make([]byte, 0, width*len(blks))
	for _, b := range blks {
		sum := g.sum(b.facts)
		hexes = hex.AppendEncode(hexes, sum[:])
	}
	all := string(hexes)
	out := make([]string, len(blks))
	for i := range out {
		out[i] = all[i*width : (i+1)*width]
	}
	return blks, out
}

// digestOf returns the relation's content digest, the hash of its block
// digests in sorted order: composed on first use, then memoized until a
// mutation of the relation.
func (r *relation) digestOf() string {
	if dg := r.digest.Load(); dg != nil {
		return *dg
	}
	_, sorted := r.blockDigests()
	slices.Sort(sorted)
	digestComputations.Inc()
	dg := hashParts(sorted)
	r.digest.CompareAndSwap(nil, &dg)
	return dg
}

// block is one block of a relation: its facts in insertion order, the
// sequence number each was inserted at, and the sequence number the block
// entered the block order at. A block changes in place only for the
// database generation that owns it; any other writer copies it.
type block struct {
	id    string // Fact.BlockID of its facts
	hash  uint64 // blockHash(id)
	seq   uint64 // when the block entered the block order
	owner uint64
	facts []Fact   // insertion order
	seqs  []uint64 // facts[i] was inserted at seqs[i], ascending
	// index holds the Fact.ID of every fact once the block outgrows
	// blockScanMax, so that filling a block stays linear.
	index map[string]struct{}
}

// blockScanMax is the largest block whose membership test scans its facts.
const blockScanMax = 16

// newBlock returns a block holding f alone, in one allocation.
func newBlock(id string, hash, seq, owner uint64, f Fact) *block {
	one := &struct {
		b     block
		facts [1]Fact
		seqs  [1]uint64
	}{facts: [1]Fact{f}, seqs: [1]uint64{seq}}
	one.b = block{id: id, hash: hash, seq: seq, owner: owner, facts: one.facts[:], seqs: one.seqs[:]}
	return &one.b
}

// find returns the position of f in b, or -1.
func (b *block) find(f Fact) int {
	return slices.IndexFunc(b.facts, f.Equal)
}

// has reports whether b holds f.
func (b *block) has(f Fact) bool {
	if b.index != nil {
		_, ok := b.index[f.ID()]
		return ok
	}
	return b.find(f) >= 0
}

// mutable returns a block that owner may change in place: b itself when
// owner owns it, else a copy for owner with room for one more fact.
func (b *block) mutable(owner uint64) *block {
	if b.owner == owner {
		return b
	}
	c := *b
	c.owner = owner
	c.facts = append(make([]Fact, 0, len(b.facts)+1), b.facts...)
	c.seqs = append(make([]uint64, 0, len(b.seqs)+1), b.seqs...)
	c.index = maps.Clone(b.index)
	return &c
}

// add appends f, inserted at seq. Must only be called on a block the
// caller owns.
func (b *block) add(f Fact, seq uint64) {
	b.facts = append(b.facts, f)
	b.seqs = append(b.seqs, seq)
	switch {
	case b.index != nil:
		b.index[f.ID()] = struct{}{}
	case len(b.facts) > blockScanMax:
		b.index = make(map[string]struct{}, 2*len(b.facts))
		for _, g := range b.facts {
			b.index[g.ID()] = struct{}{}
		}
	}
}

// remove deletes the fact at position i. Must only be called on a block
// the caller owns.
func (b *block) remove(i int) {
	if b.index != nil {
		delete(b.index, b.facts[i].ID())
	}
	b.facts = slices.Delete(b.facts, i, i+1)
	b.seqs = slices.Delete(b.seqs, i, i+1)
}
