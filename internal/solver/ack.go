package solver

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/graph"
)

// cycleGraph is the k-partite fact graph of the Theorem 4 algorithm:
// vertices are (cycle position, constant id) pairs, edges come from the
// R_i facts, and marked cycles C come from the S_k facts.
type cycleGraph struct {
	k   int
	g   *graph.Digraph
	ids map[uint64]int // (pos, constant id) → vertex id
}

func vertexKey(pos int, id uint32) uint64 { return uint64(pos)<<32 | uint64(id) }

func (cg *cycleGraph) vertex(pos int, id uint32) int {
	key := vertexKey(pos, id)
	v, ok := cg.ids[key]
	if !ok {
		v = len(cg.ids)
		cg.ids[key] = v
	}
	return v
}

// normalizeCycle rotates a cycle to start at its smallest vertex id.
func normalizeCycle(c []int) string {
	min := 0
	for i := range c {
		if c[i] < c[min] {
			min = i
		}
	}
	parts := make([]string, len(c))
	for i := range c {
		parts[i] = strconv.Itoa(c[(min+i)%len(c)])
	}
	return strings.Join(parts, ",")
}

// CertainACk decides db ∈ CERTAINTY(AC(k)) in polynomial time (Theorem 4).
// The query must match the AC(k) shape; use core.MatchCycleShape or the
// dispatcher. Steps, following the proof:
//
//  1. Purify db relative to q (Lemma 1).
//  2. Build the k-partite digraph G whose vertices are (position, value)
//     pairs — positions make the type classes disjoint, as the proof
//     assumes w.l.o.g. — with an edge per R_i fact, and collect the cycle
//     set C from the S_k facts.
//  3. db ∉ CERTAINTY(q) iff one outgoing edge per vertex can be marked
//     without marking all edges of a cycle in C, which holds iff every
//     strong component of G contains a k-cycle outside C or an elementary
//     cycle longer than k.
//
// The purified instance is a block set over d's interned view. The
// governor attached to ctx bounds the purification pass and the
// per-component cycle analysis.
func CertainACk(ctx context.Context, q cq.Query, shape *core.CycleShape, d *db.DB) (bool, error) {
	if shape == nil || shape.SkAtom < 0 {
		return false, fmt.Errorf("solver: CertainACk requires an AC(k) shape")
	}
	s, err := engine.AllBlocks(d).Purify(ctx, q)
	if err != nil || s.Empty() {
		return false, err
	}
	cg, comps := buildCycleGraph(q, shape, s)
	return decideByComponents(ctx, cg, comps, cg.markedCycles(q, shape, s))
}

// CertainCk decides db ∈ CERTAINTY(C(k)) in polynomial time (Corollary 1).
// By Lemma 9, C(k) reduces to AC(k) with S_k containing every tuple over
// the active domain; every k-cycle of the fact graph is then in C, so a
// strong component is falsifiable iff it contains an elementary cycle
// longer than k. The S_k relation is never materialized. The governor
// attached to ctx bounds the work as in CertainACk.
func CertainCk(ctx context.Context, q cq.Query, shape *core.CycleShape, d *db.DB) (bool, error) {
	if shape == nil || shape.SkAtom >= 0 {
		return false, fmt.Errorf("solver: CertainCk requires a C(k) shape")
	}
	s, err := engine.AllBlocks(d).Purify(ctx, q)
	if err != nil || s.Empty() {
		return false, err
	}
	cg, comps := buildCycleGraph(q, shape, s)
	return decideByComponents(ctx, cg, comps, nil)
}

// buildCycleGraph constructs the fact graph of the set's R_i facts, in
// insertion order, and its strong components. When the set is purified, no
// edge crosses strong components (every fact lies on a cycle witnessed by
// an embedding); the components are returned as vertex sets.
func buildCycleGraph(q cq.Query, shape *core.CycleShape, s engine.BlockSet) (*cycleGraph, [][]int) {
	k := shape.K
	cg := &cycleGraph{k: k, ids: make(map[uint64]int)}
	var edges [][2]int
	for pos, atomIdx := range shape.CycleAtoms {
		eachFact(s, q.Atoms[atomIdx], func(r *db.IRel, fi uint32) {
			edges = append(edges, [2]int{cg.vertex(pos, r.Cols[0][fi]), cg.vertex((pos+1)%k, r.Cols[1][fi])})
		})
	}
	cg.g = graph.New(len(cg.ids))
	for _, e := range edges {
		cg.g.AddEdge(e[0], e[1])
	}
	return cg, cg.g.SCCs()
}

// eachFact calls fn for every fact of a's relation in the set, in
// insertion order.
func eachFact(s engine.BlockSet, a cq.Atom, fn func(r *db.IRel, fi uint32)) {
	r := relOf(s.Interned(), a)
	for fi := 0; r != nil && fi < r.NumFacts(); fi++ {
		if s.Has(r, r.BlockOfFact[fi]) {
			fn(r, uint32(fi))
		}
	}
}

// markedCycles returns the normalized encodings of the cycles in C, read
// from the S_k facts through the shape's position permutation.
func (cg *cycleGraph) markedCycles(q cq.Query, shape *core.CycleShape, s engine.BlockSet) map[string]bool {
	out := make(map[string]bool)
	cycle := make([]int, shape.K)
	eachFact(s, q.Atoms[shape.SkAtom], func(r *db.IRel, fi uint32) {
		for j, p := range shape.SkPositions {
			id, exists := cg.ids[vertexKey(p, r.Cols[j][fi])]
			if !exists {
				// The S_k fact references a value with no incident R-edge;
				// it can never be fully marked, so it constrains nothing.
				return
			}
			cycle[p] = id
		}
		out[normalizeCycle(cycle)] = true
	})
	return out
}

// decideByComponents applies the per-component case analysis of Theorem 4's
// proof. inC is the set of normalized k-cycles belonging to C; nil means
// "every k-cycle is in C" (the C(k) case).
//
// A component admits a marking iff it contains a k-cycle not in C, or an
// elementary cycle of length > k. db is certain iff some component admits
// no marking. Components that are single vertices without self-loops
// cannot occur on purified databases (every vertex lies on a cycle of
// length k); they are treated as admitting no marking, which errs on the
// side of "certain" and is exercised only through direct API misuse.
//
// One governor step is charged per strong component.
func decideByComponents(ctx context.Context, cg *cycleGraph, comps [][]int, inC map[string]bool) (bool, error) {
	g := govern.From(ctx)
	for _, comp := range comps {
		if err := g.Step(); err != nil {
			return false, err
		}
		if markableComponent(cg, comp, inC) {
			continue
		}
		return true, nil // some strong component forces q in every repair
	}
	return false, nil
}

func markableComponent(cg *cycleGraph, comp []int, inC map[string]bool) bool {
	sub, orig := cg.g.Subgraph(comp)
	if inC != nil {
		for _, c := range sub.CyclesOfLength(cg.k) {
			mapped := make([]int, len(c))
			for i, v := range c {
				mapped[i] = orig[v]
			}
			if !inC[normalizeCycle(mapped)] {
				return true
			}
		}
	}
	if _, ok := sub.HasCycleLongerThan(cg.k); ok {
		return true
	}
	return false
}
