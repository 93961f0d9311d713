package shard

import (
	"sort"

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
// component comp; d must be the database the decomposition was taken from. A shard
// that is one co-occurrence component carries its fingerprint across the
// versions a Partition is synced to, so it is hashed once, when first
// asked for; a shard packed from several components is hashed from its
// blocks' digests in d on every call.
//
// Fingerprints of shards with different block content always differ: the
// block IDs pin the key set and the digests pin each block's facts, and
// both are hashed with unambiguous length prefixes (db.HashParts). The
// canonical component key scopes the address to the query, so one memo can
// safely serve every query shape.
func (dec *Decomposition) ShardFingerprint(d *db.DB, comp, idx int) string {
	g := dec.groups[comp][idx]
	if len(g) == 1 {
		return g[0].fingerprint(dec.compKeys[comp], d)
	}
	var rels, bids []string
	for _, c := range g {
		rels = append(rels, c.rels...)
		bids = append(bids, c.blocks...)
	}
	sort.Sort(blockPairs{rels: rels, bids: bids})
	return fingerprint(dec.compKeys[comp], d, rels, bids)
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

// fingerprint hashes the component key with the (block ID, digest in d)
// pairs of the sorted block list bids, where rels[i] is the relation of
// bids[i].
func fingerprint(key string, d *db.DB, rels, bids []string) string {
	parts := make([]string, 0, 1+2*len(bids))
	parts = append(parts, key)
	for i, bid := range bids {
		parts = append(parts, bid, d.BlockDigests(rels[i])[bid])
	}
	return db.HashParts(parts)
}

// blockPairs sorts parallel (relation, block ID) slices by block ID.
type blockPairs struct{ rels, bids []string }

func (p blockPairs) Len() int           { return len(p.bids) }
func (p blockPairs) Less(i, j int) bool { return p.bids[i] < p.bids[j] }
func (p blockPairs) Swap(i, j int) {
	p.bids[i], p.bids[j] = p.bids[j], p.bids[i]
	p.rels[i], p.rels[j] = p.rels[j], p.rels[i]
}
