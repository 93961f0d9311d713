package db

import (
	"hash/maphash"
	"math/bits"
	"slices"
)

// A relation's blocks live in a persistent hash array mapped trie keyed by
// block ID. Each level branches on the next five bits of the ID's hash,
// from the top; a node stores only its occupied slots, each holding a
// block or a child node. At level trieDepth no bits are left to branch on:
// a node there is a bucket of the blocks whose hashes agree on the 60 bits
// above, searched by ID.
//
// The trie is persistent by path copying. Every node records the owner
// (a database generation, see DB.owner) that created it and may change it
// in place; a mutation by any other owner copies the nodes on the path to
// the block it changes, O(log n) of them, and leaves the rest shared. A
// database that is never cloned therefore updates its trie in place, and a
// clone and its origin never see each other's writes.

const (
	trieBits  = 5
	trieDepth = 12 // levels that branch; 12×5 of the hash's 64 bits
)

var trieSeed = maphash.MakeSeed()

// blockHash hashes a block ID for the trie. The seed is drawn per process,
// so no input can be crafted to pile blocks into one bucket; the trie's
// shape is never observable, as every order readers see comes from
// sequence numbers.
func blockHash(bid string) uint64 { return maphash.String(trieSeed, bid) }

// chunk returns the slot that hash h takes at level.
func chunk(h uint64, level int) uint32 {
	return uint32(h>>(64-trieBits*(level+1))) & (1<<trieBits - 1)
}

type node struct {
	owner  uint64
	bitmap uint32 // occupied slots; unused in buckets
	kids   []kid  // one per occupied slot, in slot order
}

// kid is one occupied slot: a child node, or a block when sub is nil.
type kid struct {
	sub *node
	blk *block
}

// slot returns the bit of h's slot at level and the index its kid has or
// would have.
func (n *node) slot(h uint64, level int) (bit uint32, i int) {
	bit = 1 << chunk(h, level)
	return bit, bits.OnesCount32(n.bitmap & (bit - 1))
}

// get returns block bid, whose hash is h, or nil when n holds none.
func (n *node) get(h uint64, bid string) *block {
	for level := 0; n != nil; level++ {
		if level == trieDepth {
			for _, k := range n.kids {
				if k.blk.id == bid {
					return k.blk
				}
			}
			return nil
		}
		bit, i := n.slot(h, level)
		if n.bitmap&bit == 0 {
			return nil
		}
		k := n.kids[i]
		if k.sub == nil {
			if k.blk.id == bid {
				return k.blk
			}
			return nil
		}
		n = k.sub
	}
	return nil
}

// own returns n when owner may change it in place, else a copy owned by
// owner with room for one more kid. A nil n owns into an empty node. A copy
// is allocated on its own, never with other copies: a copy that a later
// write replaces, left in a shared allocation that lives on, would keep all
// it points to alive, older versions included. (buildTrie's slabs hold
// nodes that point only into the same build.)
func (n *node) own(owner uint64) *node {
	switch {
	case n == nil:
		return &node{owner: owner}
	case n.owner == owner:
		return n
	}
	kids := make([]kid, len(n.kids), len(n.kids)+1)
	copy(kids, n.kids)
	return &node{owner: owner, bitmap: n.bitmap, kids: kids}
}

// put returns the trie rooted at n, at level, with b stored under its ID,
// replacing any block with that ID.
func (n *node) put(b *block, level int, owner uint64) *node {
	n = n.own(owner)
	if level == trieDepth {
		for i := range n.kids {
			if n.kids[i].blk.id == b.id {
				n.kids[i].blk = b
				return n
			}
		}
		n.kids = append(n.kids, kid{blk: b})
		return n
	}
	bit, i := n.slot(b.hash, level)
	if n.bitmap&bit == 0 {
		n.bitmap |= bit
		n.kids = slices.Insert(n.kids, i, kid{blk: b})
		return n
	}
	switch k := &n.kids[i]; {
	case k.sub != nil:
		k.sub = k.sub.put(b, level+1, owner)
	case k.blk.id == b.id:
		k.blk = b
	default: // two blocks share the slot: both move one level down
		var sub *node
		*k = kid{sub: sub.put(k.blk, level+1, owner).put(b, level+1, owner)}
	}
	return n
}

// del returns the trie rooted at n, at level, without block bid, which it
// must hold and whose hash is h; nil when nothing is left. A node left
// with a single block hands it up to its parent.
func (n *node) del(h uint64, bid string, level int, owner uint64) *node {
	if level == trieDepth {
		if len(n.kids) == 1 {
			return nil
		}
		i := slices.IndexFunc(n.kids, func(k kid) bool { return k.blk.id == bid })
		n = n.own(owner)
		n.kids = slices.Delete(n.kids, i, i+1)
		return n
	}
	bit, i := n.slot(h, level)
	var rest kid // what stays in the slot
	if sub := n.kids[i].sub; sub != nil {
		if sub = sub.del(h, bid, level+1, owner); sub != nil {
			rest = kid{sub: sub}
			if len(sub.kids) == 1 && sub.kids[0].sub == nil {
				rest = sub.kids[0]
			}
		}
	}
	if rest == (kid{}) && len(n.kids) == 1 {
		return nil
	}
	n = n.own(owner)
	if rest == (kid{}) {
		n.bitmap &^= bit
		n.kids = slices.Delete(n.kids, i, i+1)
	} else {
		n.kids[i] = rest
	}
	return n
}

// each calls yield with every block of the trie, in no particular order.
func (n *node) each(yield func(*block)) {
	if n == nil {
		return
	}
	for _, k := range n.kids {
		if k.sub != nil {
			k.sub.each(yield)
		} else {
			yield(k.blk)
		}
	}
}

// buildTrie returns the trie over blks, which must have distinct IDs and
// be sorted by hash, owned by owner. A first pass counts the nodes and
// slots, a second lays them out in one slab each, so a bulk build (Parse)
// allocates a constant number of times.
func buildTrie(blks []*block, owner uint64) *node {
	if len(blks) == 0 {
		return nil
	}
	tb := trieBuilder{owner: owner}
	tb.layout(blks, 0)
	tb.nodes, tb.kids = make([]node, tb.n), make([]kid, tb.k)
	tb.n, tb.k = 0, 0
	return tb.layout(blks, 0)
}

// trieBuilder counts (nodes == nil) or fills the slabs of buildTrie.
type trieBuilder struct {
	owner uint64
	nodes []node
	kids  []kid
	n, k  int // the slab slots used so far
}

func (tb *trieBuilder) layout(blks []*block, level int) *node {
	var nd *node
	if tb.nodes != nil {
		nd = &tb.nodes[tb.n]
		nd.owner = tb.owner
	}
	tb.n++
	slots := len(blks) // a bucket holds every block
	if level < trieDepth {
		slots = 1
		for i := 1; i < len(blks); i++ {
			if chunk(blks[i].hash, level) != chunk(blks[i-1].hash, level) {
				slots++
			}
		}
	}
	start := tb.k
	tb.k += slots
	if nd != nil {
		nd.kids = tb.kids[start:tb.k:tb.k] // clipped: a later insert copies
	}
	if level == trieDepth {
		if nd != nil {
			for i, b := range blks {
				nd.kids[i].blk = b
			}
		}
		return nd
	}
	for s, lo := 0, 0; lo < len(blks); s++ {
		c := chunk(blks[lo].hash, level)
		hi := lo + 1
		for hi < len(blks) && chunk(blks[hi].hash, level) == c {
			hi++
		}
		k := kid{blk: blks[lo]}
		if hi-lo > 1 {
			k = kid{sub: tb.layout(blks[lo:hi], level+1)}
		}
		if nd != nil {
			nd.bitmap |= 1 << c
			nd.kids[s] = k
		}
		lo = hi
	}
	return nd
}
