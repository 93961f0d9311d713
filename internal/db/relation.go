package db

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
)

// relation holds one relation's facts and derived structure. Relations are
// the copy-on-write unit of the database: Clone marks every relation shared,
// and a mutation of a shared relation first produces a private deep copy, so
// a mutation touches only the structures of the relation it changes — every
// other relation (facts, blocks, digests) is carried over by pointer. This
// is what makes invalidation incremental: writing one fact no longer
// discards the whole database's content digest, only the touched
// relation's (and, within it, only the touched block's digest is
// recomputed).
//
// Core fields (sig, facts, ids, blocks, blockOrder) are maintained eagerly
// on every mutation. The digest fields (blockDigests, digest) are built on
// first use under imu; once a relation is shared it is immutable, so the
// memoized parts stay valid forever.
type relation struct {
	sig        [2]int
	facts      []Fact            // insertion order
	ids        map[string]int    // Fact.ID() → index into facts
	blocks     map[string][]Fact // Fact.BlockID() → facts, insertion order
	blockOrder []string          // block IDs in first-insertion order

	// shared is set when a second database gains a reference to this
	// struct (Clone). A shared relation must never be mutated in place.
	shared atomic.Bool

	imu          sync.Mutex
	blockDigests map[string]string // block ID → content digest; incrementally maintained
	digest       string            // composed relation digest; "" until composed
}

func newRelation(sig [2]int) *relation {
	return &relation{
		sig:    sig,
		ids:    make(map[string]int),
		blocks: make(map[string][]Fact),
	}
}

// mutable returns a relation that may be updated in place: r itself when it
// is exclusively owned, otherwise a private deep copy of the core fields.
// The copy carries the per-block digests over — the mutation recomputes
// only the digest of the block it touches.
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
	}
	for k, v := range r.ids {
		c.ids[k] = v
	}
	for k, v := range r.blocks {
		c.blocks[k] = append(make([]Fact, 0, len(v)), v...)
	}
	r.imu.Lock()
	if r.blockDigests != nil {
		c.blockDigests = make(map[string]string, len(r.blockDigests))
		for k, v := range r.blockDigests {
			c.blockDigests[k] = v
		}
	}
	r.imu.Unlock()
	return c
}

// insert adds a fact known to be absent, updating the core structures
// eagerly and the block digests incrementally where they exist. Must only
// be called on an exclusively owned relation (after mutable).
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
	r.imu.Lock()
	if r.blockDigests != nil {
		r.blockDigests[bid] = computeDigest(r.blocks[bid])
	}
	r.digest = ""
	r.imu.Unlock()
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
	r.imu.Lock()
	if r.blockDigests != nil {
		if blockEmptied {
			delete(r.blockDigests, bid)
		} else {
			r.blockDigests[bid] = computeDigest(r.blocks[bid])
		}
	}
	r.digest = ""
	r.imu.Unlock()
	return blockEmptied
}

// blockDigestsLocked builds the per-block digest map on first use. The
// caller must hold imu. Once built, insert/remove maintain the map
// incrementally, so after a mutation only the touched block is re-hashed.
func (r *relation) blockDigestsLocked() map[string]string {
	if r.blockDigests == nil {
		// One digester and one hex string serve every block.
		var g digester
		const width = 2 * sha256.Size
		hexes := make([]byte, 0, width*len(r.blockOrder))
		for _, bid := range r.blockOrder {
			sum := g.sum(r.blocks[bid])
			hexes = hex.AppendEncode(hexes, sum[:])
		}
		all := string(hexes)
		r.blockDigests = make(map[string]string, len(r.blockOrder))
		for i, bid := range r.blockOrder {
			r.blockDigests[bid] = all[i*width : (i+1)*width]
		}
	}
	return r.blockDigests
}

// blockDigestsOf returns the memoized per-block content digests keyed by
// block ID. The returned map is the live memoized structure: callers must
// treat it as read-only and must not hold it across a mutation of this
// relation (the shard-fingerprint path reads it transiently off immutable
// published snapshots).
func (r *relation) blockDigestsOf() map[string]string {
	r.imu.Lock()
	defer r.imu.Unlock()
	return r.blockDigestsLocked()
}

// digestOf returns the relation's composed content digest: the hash of the
// sorted per-block digests. Block digests are maintained incrementally by
// insert/remove once first computed, so after a mutation only the touched
// block is re-hashed and the composition re-sorted.
func (r *relation) digestOf() string {
	r.imu.Lock()
	defer r.imu.Unlock()
	if r.digest != "" {
		return r.digest
	}
	digests := r.blockDigestsLocked()
	parts := make([]string, 0, len(digests))
	for _, dg := range digests {
		parts = append(parts, dg)
	}
	sort.Strings(parts)
	r.digest = hashParts(parts)
	digestComputations.Inc()
	return r.digest
}
