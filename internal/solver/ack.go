package solver

import (
	"context"
	"fmt"
	"sort"
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
// vertices are (cycle position, constant) pairs, edges come from the
// R_i facts, and marked cycles C come from the S_k facts.
type cycleGraph struct {
	k      int
	g      *graph.Digraph
	ids    map[string]int // encoded (pos, value) → vertex id
	names  []string       // vertex id → debug name
	values []string       // vertex id → constant value
	pos    []int          // vertex id → cycle position
}

func newCycleGraph(k int) *cycleGraph {
	return &cycleGraph{k: k, g: nil, ids: make(map[string]int)}
}

func (cg *cycleGraph) vertexKey(pos int, value string) string {
	return strconv.Itoa(pos) + "/" + strconv.Itoa(len(value)) + ":" + value
}

func (cg *cycleGraph) vertex(pos int, value string) int {
	key := cg.vertexKey(pos, value)
	if id, ok := cg.ids[key]; ok {
		return id
	}
	id := len(cg.names)
	cg.ids[key] = id
	cg.names = append(cg.names, fmt.Sprintf("x%d=%s", pos+1, value))
	cg.values = append(cg.values, value)
	cg.pos = append(cg.pos, pos)
	return id
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
// The governor attached to ctx bounds the purification pass and the
// per-component cycle analysis.
func CertainACk(ctx context.Context, q cq.Query, shape *core.CycleShape, d *db.DB) (bool, error) {
	if shape == nil || shape.SkAtom < 0 {
		return false, fmt.Errorf("solver: CertainACk requires an AC(k) shape")
	}
	d, err := engine.PurifyCtx(ctx, q, d)
	if err != nil {
		return false, err
	}
	if d.Len() == 0 {
		return false, nil
	}
	cg, comps, err := buildCycleGraph(q, shape, d, true)
	if err != nil {
		return false, err
	}
	return decideByComponents(ctx, cg, comps, cg.markedCycles(q, shape, d))
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
	d, err := engine.PurifyCtx(ctx, q, d)
	if err != nil {
		return false, err
	}
	if d.Len() == 0 {
		return false, nil
	}
	cg, comps, err := buildCycleGraph(q, shape, d, false)
	if err != nil {
		return false, err
	}
	return decideByComponents(ctx, cg, comps, nil)
}

// buildCycleGraph constructs the fact graph and its strong components. When
// the database is purified, no edge crosses strong components (every fact
// lies on a cycle witnessed by an embedding); the components are returned
// as vertex sets.
func buildCycleGraph(q cq.Query, shape *core.CycleShape, d *db.DB, withSk bool) (*cycleGraph, [][]int, error) {
	k := shape.K
	cg := newCycleGraph(k)
	type pendingEdge struct{ u, v int }
	var edges []pendingEdge
	for pos, atomIdx := range shape.CycleAtoms {
		rel := q.Atoms[atomIdx].Rel
		for _, f := range d.RelationFacts(rel) {
			u := cg.vertex(pos, f.Args[0])
			v := cg.vertex((pos+1)%k, f.Args[1])
			edges = append(edges, pendingEdge{u, v})
		}
	}
	cg.g = graph.New(len(cg.names))
	for _, e := range edges {
		cg.g.AddEdge(e.u, e.v)
	}
	return cg, cg.g.SCCs(), nil
}

// markedCycles returns the normalized encodings of the cycles in C, read
// from the S_k facts through the shape's position permutation.
func (cg *cycleGraph) markedCycles(q cq.Query, shape *core.CycleShape, d *db.DB) map[string]bool {
	out := make(map[string]bool)
	rel := q.Atoms[shape.SkAtom].Rel
	for _, f := range d.RelationFacts(rel) {
		cycle := make([]int, shape.K)
		ok := true
		for j, val := range f.Args {
			p := shape.SkPositions[j]
			key := cg.vertexKey(p, val)
			id, exists := cg.ids[key]
			if !exists {
				// The S_k fact references a value with no incident R-edge;
				// it can never be fully marked, so it constrains nothing.
				ok = false
				break
			}
			cycle[p] = id
		}
		if ok {
			out[normalizeCycle(cycle)] = true
		}
	}
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

// sortedComponentSizes is a debugging helper exposing component structure.
func sortedComponentSizes(comps [][]int) []int {
	out := make([]int, len(comps))
	for i, c := range comps {
		out[i] = len(c)
	}
	sort.Ints(out)
	return out
}
