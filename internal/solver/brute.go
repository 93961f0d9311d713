// Package solver implements every decision procedure for CERTAINTY(q) the
// paper describes: brute-force repair enumeration (ground truth), the
// first-order rewriting procedure for acyclic attack graphs (Theorem 1),
// the polynomial algorithm for weak terminal cycles (Theorem 3) with its
// two-atom base-case solver, the graph-marking algorithm for AC(k)
// (Theorem 4) and C(k) (Corollary 1), a pruned exponential search for
// coNP-classified queries, and a dispatcher driven by the classifier.
package solver

import (
	"context"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/govern"
)

// BruteForce decides db ∈ CERTAINTY(q) by enumerating every repair and
// evaluating q on each. Exponential in the number of non-singleton blocks;
// the ground truth for all other solvers. It is BruteForceCtx run to
// completion.
func BruteForce(q cq.Query, d *db.DB) bool {
	// A background context carries no governor limit, so the enumeration
	// is never cut off and the error is always nil.
	certain, _ := BruteForceCtx(context.Background(), q, d)
	return certain
}

// BruteForceCtx is BruteForce with cooperative cancellation: the
// enumeration aborts with the governor's error on cancellation, deadline,
// or budget exhaustion. The decision is unspecified when the error is
// non-nil.
func BruteForceCtx(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	certain := true
	_, err := d.EachRepairCtx(ctx, func(r []db.Fact) bool {
		if !engine.EvalRepair(q, r) {
			certain = false
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	return certain, nil
}

// selection is a mutable stack of chosen facts with per-relation indexes,
// supporting the incremental satisfaction check of FalsifyingRepair.
type selection struct {
	q     cq.Query
	byRel map[string][]db.Fact
}

func newSelection(q cq.Query) *selection {
	return &selection{q: q, byRel: make(map[string][]db.Fact, q.Len())}
}

func (s *selection) push(f db.Fact) { s.byRel[f.Rel] = append(s.byRel[f.Rel], f) }

func (s *selection) pop(f db.Fact) {
	l := s.byRel[f.Rel]
	s.byRel[f.Rel] = l[:len(l)-1]
}

// satisfiedUsing reports whether the selection satisfies q through an
// embedding that uses f. Under the invariant that the selection did not
// satisfy q before f was pushed, this decides whether it does now.
func (s *selection) satisfiedUsing(f db.Fact) bool {
	for i, a := range s.q.Atoms {
		if a.Rel != f.Rel {
			continue
		}
		binding, ok := engine.MatchAtom(a, f, cq.Valuation{})
		if !ok {
			continue
		}
		if s.extend(binding, i, 0) {
			return true
		}
	}
	return false
}

// extend completes a partial embedding over the remaining atoms (skipping
// the anchored one) by scanning the selected facts of each relation.
func (s *selection) extend(binding cq.Valuation, anchor, next int) bool {
	if next == s.q.Len() {
		return true
	}
	if next == anchor {
		return s.extend(binding, anchor, next+1)
	}
	a := s.q.Atoms[next]
	for _, g := range s.byRel[a.Rel] {
		if ext, ok := engine.MatchAtom(a, g, binding); ok {
			if s.extend(ext, anchor, next+1) {
				return true
			}
		}
	}
	return false
}

// searchEvidence records the partial progress of a governed falsifying
// search: how deep it got before being cut off, and the deepest partial
// selection — the best falsifying candidate found so far (every completion
// of it was still open when the search stopped).
type searchEvidence struct {
	totalBlocks int       // relevant blocks in the search space
	bestDepth   int       // most blocks ever simultaneously fixed
	bestChosen  []db.Fact // the selection at that depth
}

// FalsifyingRepair searches for a repair of d falsifying q using
// block-by-block backtracking with satisfaction pruning: as soon as the
// partial selection already satisfies q, every completion does too, and the
// branch is cut. Returns the falsifying repair and true if one exists.
// Worst-case exponential (CERTAINTY(q) is coNP-complete for strong-cycle
// queries), but vastly faster than plain enumeration on typical instances.
//
// The search charges one governor step per search node and aborts with the
// governor's error (ctx.Err(), budget exhaustion, or an injected fault)
// when the governor attached to ctx trips; the result is unspecified when
// the error is non-nil. Use a governed ctx to bound the exponential search
// on coNP-classified instances.
func FalsifyingRepair(ctx context.Context, q cq.Query, d *db.DB) ([]db.Fact, bool, error) {
	rep, found, _, err := falsifyingSearch(govern.From(ctx), q, d, true)
	return rep, found, err
}

// FalsifyingRepairStatic is FalsifyingRepair with the dynamic fail-first
// block ordering disabled (blocks are tried in database order). Exposed for
// the ordering ablation in the benchmark harness; prefer FalsifyingRepair.
func FalsifyingRepairStatic(ctx context.Context, q cq.Query, d *db.DB) ([]db.Fact, bool, error) {
	rep, found, _, err := falsifyingSearch(govern.From(ctx), q, d, false)
	return rep, found, err
}

// CertainByFalsifying decides certainty via FalsifyingRepair; the decision
// is unspecified when the error is non-nil.
func CertainByFalsifying(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	_, found, err := FalsifyingRepair(ctx, q, d)
	if err != nil {
		return false, err
	}
	return !found, nil
}

// falsifyingSearch is the falsifying-repair search under governor g: one
// governor step per search node. With dynamic set it uses fail-first
// ordering: each node branches on the remaining block with the fewest safe
// (non-satisfying) choices, and a block with none cuts the branch at once,
// so the search behaves like DPLL on constraint-style instances. Otherwise
// each node branches on the first remaining block in database order. On
// cutoff it returns the governor's error together with the evidence
// accumulated so far.
func falsifyingSearch(g *govern.Governor, q cq.Query, d *db.DB, dynamic bool) ([]db.Fact, bool, searchEvidence, error) {
	var ev searchEvidence
	rels := make(map[string]bool, q.Len())
	for _, a := range q.Atoms {
		rels[a.Rel] = true
	}
	var relevant, irrelevant [][]db.Fact
	for _, b := range d.Blocks() {
		if rels[b[0].Rel] {
			relevant = append(relevant, b)
		} else {
			irrelevant = append(irrelevant, b)
		}
	}
	ev.totalBlocks = len(relevant)
	if q.IsEmpty() {
		return nil, false, ev, nil // the empty query holds in every repair
	}
	sel := newSelection(q)
	var chosen []db.Fact
	done := make([]bool, len(relevant))
	var rec func(remaining int) (bool, error)
	rec = func(remaining int) (bool, error) {
		if err := g.Step(); err != nil {
			return false, err
		}
		if remaining == 0 {
			return true, nil
		}
		best, bestSafe := -1, []db.Fact(nil)
		for i, blk := range relevant {
			if done[i] {
				continue
			}
			var safe []db.Fact
			for _, f := range blk {
				sel.push(f)
				if !sel.satisfiedUsing(f) {
					safe = append(safe, f)
				}
				sel.pop(f)
			}
			if best == -1 || len(safe) < len(bestSafe) {
				best, bestSafe = i, safe
				if len(safe) == 0 {
					return false, nil
				}
			}
			if !dynamic {
				break
			}
		}
		done[best] = true
		for _, f := range bestSafe {
			sel.push(f)
			chosen = append(chosen, f)
			if len(chosen) > ev.bestDepth {
				ev.bestDepth = len(chosen)
				ev.bestChosen = append(ev.bestChosen[:0], chosen...)
			}
			found, err := rec(remaining - 1)
			if err != nil {
				return false, err
			}
			if found {
				return true, nil
			}
			chosen = chosen[:len(chosen)-1]
			sel.pop(f)
		}
		done[best] = false
		return false, nil
	}
	found, err := rec(len(relevant))
	if err != nil {
		return nil, false, ev, err
	}
	if !found {
		return nil, false, ev, nil
	}
	// Facts of relations outside q never influence satisfaction; complete
	// the repair with an arbitrary choice per irrelevant block.
	out := append([]db.Fact(nil), chosen...)
	for _, b := range irrelevant {
		out = append(out, b[0])
	}
	return out, true, ev, nil
}
