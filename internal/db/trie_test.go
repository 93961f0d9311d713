package db

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// checkTrie fails unless root holds exactly want: every block is found
// under its ID, absent IDs are not, a walk yields each block once, and no
// node below the root holds a lone block.
func checkTrie(t *testing.T, root *node, want map[string]*block, mask uint64) {
	t.Helper()
	for id, b := range want {
		if got := root.get(blockHash(id)&mask, id); got != b {
			t.Fatalf("get(%s) = %v, want %v", id, got, b)
		}
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("absent%d", i)
		if got := root.get(blockHash(id)&mask, id); got != nil {
			t.Fatalf("get(%s) = %v for an absent block", id, got)
		}
	}
	seen := map[string]bool{}
	root.each(func(b *block) {
		if seen[b.id] || want[b.id] != b {
			t.Fatalf("walk yields %s twice or unexpectedly", b.id)
		}
		seen[b.id] = true
	})
	if len(seen) != len(want) {
		t.Fatalf("walk yields %d blocks, want %d", len(seen), len(want))
	}
	var lone func(n *node, depth int)
	lone = func(n *node, depth int) {
		if n == nil {
			return
		}
		if depth > 0 && len(n.kids) == 1 && n.kids[0].sub == nil {
			t.Fatalf("a node at depth %d holds a lone block", depth)
		}
		for _, k := range n.kids {
			lone(k.sub, depth+1)
		}
	}
	lone(root, 0)
}

// TestTrieMatchesMap drives the trie with random puts and deletes against
// a map, under hash masks that force long shared prefixes and full
// collisions down to the buckets. Every 100 steps the version at hand is
// kept and the writer moves to a new owner, as Clone does: each kept
// version must still hold what it held, and a bulk build of the final
// blocks must hold the same.
func TestTrieMatchesMap(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 0xf00000000000000f, 0xf, 0} {
		r := rand.New(rand.NewSource(int64(mask & 0xffff)))
		var root *node
		want := map[string]*block{}
		type version struct {
			root *node
			want map[string]*block
		}
		var kept []version
		owner := uint64(1)
		for step := 0; step < 3000; step++ {
			if step%100 == 0 {
				kept = append(kept, version{root, maps.Clone(want)})
				owner++
			}
			id := fmt.Sprintf("b%d", r.Intn(300))
			h := blockHash(id) & mask
			if _, ok := want[id]; ok && r.Intn(2) == 0 {
				root = root.del(h, id, 0, owner)
				delete(want, id)
			} else {
				b := &block{id: id, hash: h}
				root = root.put(b, 0, owner)
				want[id] = b
			}
			checkTrie(t, root, want, mask)
		}
		for _, v := range kept {
			checkTrie(t, v.root, v.want, mask)
		}
		var blks []*block
		for _, b := range want {
			blks = append(blks, b)
		}
		slices.SortFunc(blks, func(a, b *block) int { return cmp.Compare(a.hash, b.hash) })
		checkTrie(t, buildTrie(blks, owner), want, mask)
	}
}
