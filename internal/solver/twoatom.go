package solver

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/intern"
)

// relOf returns the columnar storage of a's relation in in, or nil when the
// relation is absent or its signature differs from a's (no fact of it can
// match a).
func relOf(in *db.Interned, a cq.Atom) *db.IRel {
	r := in.Rel(a.Rel)
	if r == nil || r.Arity != len(a.Args) || r.KeyLen != a.KeyLen {
		return nil
	}
	return r
}

// unify matches atom a against fact fi of r, writing the id each variable
// takes into vals (vals[i] for vars[i]; vars lists a's variables). It
// reports false when the fact contradicts a constant or a repeated variable
// of a.
func unify(a cq.Atom, in *db.Interned, r *db.IRel, fi uint32, vars []string, vals []uint32) bool {
	for i := range vals {
		vals[i] = intern.None
	}
	for p, t := range a.Args {
		id := r.Cols[p][fi]
		if t.IsConst {
			if in.Syms.MustString(id) != t.Value {
				return false
			}
			continue
		}
		i := slices.Index(vars, t.Value)
		if vals[i] != intern.None && vals[i] != id {
			return false
		}
		vals[i] = id
	}
	return true
}

// This file decides CERTAINTY({F,G}) for two-atom self-join-free queries
// whose attack graph is a weak 2-cycle — the Kolaitis–Pema "in P but not
// first-order" case, and the base case of Theorem 3.
//
// Kolaitis and Pema solve these instances by reduction to maximum
// independent set in claw-free graphs (Minty's algorithm). We exploit the
// structure the weak cycle forces to get a direct polynomial algorithm:
//
// Both attacks weak means key(G) ⊆ vars(F) and key(F) ⊆ vars(G), hence
// both keys lie in the shared variables S = vars(F) ∩ vars(G). For a fact A
// matching F, let σ(A) be the restriction to S of the valuation induced by
// A ("signature"). Facts A (of F's relation) and B (of G's) jointly embed q
// iff σ(A) = σ(B). Because key(F) ⊆ S and key(G) ⊆ S, a signature value
// determines both the F-block and the G-block containing its facts, so
// conflicts group into complete-bipartite clusters, one per signature,
// spanning exactly one F-block and one G-block.
//
// A falsifying repair picks one fact per block avoiding every cluster. Per
// block the choice only matters up to signature, and a fact that matches no
// partner (or does not match its own atom's constants) is a free choice.
// Blocks with a free choice are removed together with their incident
// signatures, iterating to a fixpoint (removing a signature edge can free
// its other endpoint). What remains is a bipartite multigraph on blocks
// whose edges are signatures live on both sides; each remaining block must
// claim one incident edge with no edge claimed twice, which is possible iff
// every connected component has at least as many edges as vertices (i.e.,
// is not a tree). Hence:
//
//	db is certain ⟺ some component of the reduced signature graph is a tree.
//
// The instance is a block set over one interned view: blocks[0] lists
// blocks of F's relation, blocks[1] blocks of G's.
func certainTwoAtomWeak(F, G cq.Atom, in *db.Interned, blocks [2][]uint32) (bool, error) {
	if !G.KeyVars().SubsetOf(F.Vars()) || !F.KeyVars().SubsetOf(G.Vars()) {
		return false, fmt.Errorf("solver: two-atom solver requires a weak cycle: key(G) ⊆ vars(F) and key(F) ⊆ vars(G) (%s, %s)", F, G)
	}
	shared := F.Vars().Intersect(G.Vars()).Sorted()

	// Number the blocks of both sides 0..n-1. A block's options are the
	// signatures of its facts; free marks a fact that matches nothing.
	// sigBlock[s][side] is the block of that side carrying signature s, or
	// -1. The keys lie in the signature, so no signature spans two blocks
	// of one side.
	type blockInfo struct {
		opts []int
		free bool
	}
	var info []blockInfo
	sigIdx := make(map[string]int)
	var sigBlock [][2]int
	var buf []byte
	for side, a := range [2]cq.Atom{F, G} {
		r := relOf(in, a)
		if r == nil {
			continue
		}
		vars := a.Vars().Sorted()
		vals := make([]uint32, len(vars))
		for _, b := range blocks[side] {
			bi := len(info)
			info = append(info, blockInfo{})
			for _, fi := range r.BlockSpan(int(b)) {
				if !unify(a, in, r, fi, vars, vals) {
					// A fact that does not match the atom's pattern joins
					// with nothing: a free choice.
					info[bi].free = true
					continue
				}
				buf = buf[:0]
				for _, v := range shared {
					buf = binary.LittleEndian.AppendUint32(buf, vals[slices.Index(vars, v)])
				}
				s, ok := sigIdx[string(buf)]
				if !ok {
					s = len(sigBlock)
					sigIdx[string(buf)] = s
					sigBlock = append(sigBlock, [2]int{-1, -1})
				}
				switch sigBlock[s][side] {
				case bi:
				case -1:
					sigBlock[s][side] = bi
					info[bi].opts = append(info[bi].opts, s)
				default:
					return false, fmt.Errorf("solver: signature spans multiple blocks; weak-cycle invariant violated")
				}
			}
		}
	}

	// A signature is a live edge iff present on both sides. Reduction:
	// repeatedly remove blocks that have a free option or an option whose
	// signature is not (or no longer) a live edge; removing a block kills
	// its live edges, which makes their other endpoints removable.
	live := make([]bool, len(sigBlock))
	for s, bs := range sigBlock {
		live[s] = bs[0] >= 0 && bs[1] >= 0
	}
	var queue []int
	for b, bi := range info {
		removable := bi.free
		for _, s := range bi.opts {
			removable = removable || !live[s]
		}
		if removable {
			queue = append(queue, b)
		}
	}
	removed := make([]bool, len(info))
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if removed[b] {
			continue
		}
		removed[b] = true
		for _, s := range info[b].opts {
			if !live[s] {
				continue
			}
			live[s] = false
			other := sigBlock[s][0]
			if other == b {
				other = sigBlock[s][1]
			}
			if !removed[other] {
				queue = append(queue, other)
			}
		}
	}

	// Remaining blocks: every option is a live edge. Falsifiable iff every
	// connected component of the block/edge multigraph has #edges >=
	// #vertices; certain iff some component is a tree.
	parent := make([]int, len(info))
	for b := range parent {
		parent[b] = b
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for s, ok := range live {
		if ok {
			parent[find(sigBlock[s][0])] = find(sigBlock[s][1])
		}
	}
	verts := make([]int, len(info))
	edges := make([]int, len(info))
	for b := range info {
		if !removed[b] {
			verts[find(b)]++
		}
	}
	for s, ok := range live {
		if ok {
			edges[find(sigBlock[s][0])]++
		}
	}
	for root := range info {
		if verts[root] > 0 && edges[root] < verts[root] {
			// This component is a tree: no falsifying choice exists within
			// it, so every repair satisfies q.
			return true, nil
		}
	}
	// Every component can avoid all conflicts — unless the query cannot be
	// satisfied at all, in which case no repair satisfies it either and the
	// answer is "not certain" (consistently handled: zero components mean a
	// falsifying repair exists whenever the database is nonempty; and for
	// an empty database the empty repair falsifies the nonempty query q).
	return false, nil
}
