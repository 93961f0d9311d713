package shard

import (
	"github.com/cqa-go/certainty/internal/db"
)

// Shard fingerprints are the content addresses behind delta re-solve: a
// shard's conclusive verdict is a pure function of (component query, shard
// fact set), the shard fact set is exactly the union of its blocks, and a
// block's facts are determined by its content digest. Hashing the
// component's canonical key together with the shard's sorted (block ID,
// block digest) pairs therefore identifies the sub-instance up to SHA-256
// collision — across databases, mutations, and fact insertion orders.
//
// This is what makes the solver's shard memo safe without any invalidation
// protocol: a mutation changes the touched blocks' digests, so the touched
// shards' fingerprints change and simply miss the memo, while untouched
// shards keep their fingerprints and hit. A superseded entry is never
// looked up again until its content returns (an undone write hits it), and
// the memo's LRU bound ages it out otherwise.

// ShardFingerprint returns the content address of listed shard idx of
// component comp; d must be the database the decomposition was taken from.
// A shard is one co-occurrence component, which carries its fingerprint
// across the versions a Partition is synced to, so its blocks' facts are
// hashed once, when the fingerprint is first asked for.
//
// Fingerprints of shards with different block content always differ: the
// block IDs pin the key set and the digests pin each block's facts, and
// both are hashed with unambiguous length prefixes (db.HashParts). The
// canonical component key scopes the address to the query, so one memo can
// safely serve every query shape.
func (dec *Decomposition) ShardFingerprint(d *db.DB, comp, idx int) string {
	return dec.shards[comp][idx].fingerprint(dec.compKeys[comp], d)
}

// ComponentFingerprints returns the fingerprints of every listed shard of
// component comp, in shard order — the batch the solver's memo pre-pass
// looks up before fanning out.
func (dec *Decomposition) ComponentFingerprints(d *db.DB, comp int) []string {
	fps := make([]string, dec.ComponentShards(comp))
	for i := range fps {
		fps[i] = dec.ShardFingerprint(d, comp, i)
	}
	return fps
}

// fingerprint returns the component's shard fingerprint, computing it on
// first use: the component key hashed with the (block ID, digest in d)
// pair of each of its sorted blocks. Every database the component appears
// in holds the same facts in its blocks (a sync that could see a change to
// one re-links it, which replaces the component), so whichever caller
// computes it first computes the same value.
func (c *component) fingerprint(key string, d *db.DB) string {
	if fp := c.fp.Load(); fp != nil {
		return *fp
	}
	parts := make([]string, 0, 1+2*len(c.blocks))
	parts = append(parts, key)
	for i, bid := range c.blocks {
		parts = append(parts, bid, d.BlockDigest(c.rels[i], bid))
	}
	fp := db.HashParts(parts)
	c.fp.Store(&fp)
	return fp
}
