package db

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync/atomic"
)

// relation holds one relation's facts and derived structure. Relations are
// the copy-on-write unit of the database: Clone marks every relation shared,
// and a mutation of a shared relation first produces a private deep copy, so
// a mutation touches only the structures of the relation it changes — every
// other relation (facts, blocks, version) is carried over by pointer.
//
// Every field is maintained eagerly on every mutation. A relation keeps no
// digest: its content digests are composed from its facts on each call
// (blockDigests, digestOf), and change detection reads the version and the
// change log.
type relation struct {
	sig        [2]int
	facts      []Fact            // insertion order
	ids        map[string]int    // Fact.ID() → index into facts
	blocks     map[string][]Fact // Fact.BlockID() → facts, insertion order
	blockOrder []string          // block IDs in first-insertion order

	// version names the relation's content: every mutation, in place or on
	// a private copy, draws a new one from the process-wide counter, so two
	// relations with one version hold the same facts.
	version uint64
	// The change log: the block each recent mutation touched (changed) and
	// the version it started from (since), oldest first. Versions along one
	// relation's history increase, so since is sorted. It keeps between
	// ChangeLogLen/2 and ChangeLogLen entries once full.
	since   []uint64
	changed []string

	// shared is set when a second database gains a reference to this
	// struct (Clone). A shared relation must never be mutated in place.
	shared atomic.Bool
}

// ChangeLogLen bounds a relation's change log: ChangedBlocks reaches back
// at least ChangeLogLen/2 and at most ChangeLogLen mutations. A reader that
// synced longer ago falls back to a full rescan of the relation.
const ChangeLogLen = 64

// versions is the process-wide relation version counter; 0 is never drawn,
// so it can stand for "absent".
var versions atomic.Uint64

func newRelation(sig [2]int) *relation {
	return &relation{
		sig:     sig,
		ids:     make(map[string]int),
		blocks:  make(map[string][]Fact),
		version: versions.Add(1),
	}
}

// mutable returns a relation that may be updated in place: r itself when it
// is exclusively owned, otherwise a private deep copy, change log included.
func (r *relation) mutable() *relation {
	if !r.shared.Load() {
		return r
	}
	indexInvalidations.Inc()
	c := &relation{
		sig:        r.sig,
		facts:      append(make([]Fact, 0, len(r.facts)+1), r.facts...),
		ids:        make(map[string]int, len(r.ids)+1),
		blocks:     make(map[string][]Fact, len(r.blocks)+1),
		blockOrder: append([]string(nil), r.blockOrder...),
		version:    r.version,
		since:      append(make([]uint64, 0, ChangeLogLen), r.since...),
		changed:    append(make([]string, 0, ChangeLogLen), r.changed...),
	}
	for k, v := range r.ids {
		c.ids[k] = v
	}
	for k, v := range r.blocks {
		c.blocks[k] = append(make([]Fact, 0, len(v)), v...)
	}
	return c
}

// touch records a mutation of block bid: a new version, and a log entry
// naming the block and the version the mutation started from. Must only be
// called on an exclusively owned relation.
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

// insert adds a fact known to be absent. Must only be called on an
// exclusively owned relation (after mutable).
func (r *relation) insert(f Fact) {
	idx := len(r.facts)
	r.facts = append(r.facts, f)
	r.ids[f.ID()] = idx
	bid := f.BlockID()
	blk, existed := r.blocks[bid]
	if !existed {
		r.blockOrder = append(r.blockOrder, bid)
	}
	r.blocks[bid] = append(blk, f)
	r.touch(bid)
}

// remove deletes the fact at r.ids[f.ID()], which must exist. Must only be
// called on an exclusively owned relation. Reports whether the fact's block
// became empty.
func (r *relation) remove(f Fact) (blockEmptied bool) {
	id := f.ID()
	idx := r.ids[id]
	copy(r.facts[idx:], r.facts[idx+1:])
	r.facts = r.facts[:len(r.facts)-1]
	delete(r.ids, id)
	for gid, gi := range r.ids {
		if gi > idx {
			r.ids[gid] = gi - 1
		}
	}
	bid := f.BlockID()
	blk := r.blocks[bid]
	kept := blk[:0]
	for _, g := range blk {
		if !g.Equal(f) {
			kept = append(kept, g)
		}
	}
	if len(kept) == 0 {
		delete(r.blocks, bid)
		for i, b := range r.blockOrder {
			if b == bid {
				r.blockOrder = append(r.blockOrder[:i], r.blockOrder[i+1:]...)
				break
			}
		}
		blockEmptied = true
	} else {
		r.blocks[bid] = kept
	}
	r.touch(bid)
	return blockEmptied
}

// blockDigests returns the content digest of every block, in block order,
// hashed with one digester into one hex string.
func (r *relation) blockDigests() []string {
	var g digester
	const width = 2 * sha256.Size
	hexes := make([]byte, 0, width*len(r.blockOrder))
	for _, bid := range r.blockOrder {
		sum := g.sum(r.blocks[bid])
		hexes = hex.AppendEncode(hexes, sum[:])
	}
	all := string(hexes)
	out := make([]string, len(r.blockOrder))
	for i := range out {
		out[i] = all[i*width : (i+1)*width]
	}
	return out
}

// digestOf composes the relation's content digest: the hash of its block
// digests in sorted order.
func (r *relation) digestOf() string {
	sorted := r.blockDigests()
	slices.Sort(sorted)
	digestComputations.Inc()
	return hashParts(sorted)
}
