package solver

import (
	"context"
	"fmt"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/jointree"
)

// CertainFOBaseline is the seed reference implementation of CertainFO: it
// re-derives the relation's block list on every recursive step, substitutes
// fresh string valuations into the residual query, and memoizes
// unattacked-atom choices lazily per rendered shape key. It charges one
// governor step per recursive call, the same charge sites as the compiled
// program, so it is the differential oracle for verdicts, step counts, and
// budget cutoffs alike.
func CertainFOBaseline(q cq.Query, d *db.DB) (bool, error) {
	return CertainFOBaselineCtx(context.Background(), q, d)
}

// CertainFOBaselineCtx is CertainFOBaseline with cooperative cancellation.
func CertainFOBaselineCtx(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	memo := make(map[string]int)
	return certainFOBaseline(govern.From(ctx), q, d, memo)
}

// shapeKey renders q with every constant replaced by a placeholder; two
// queries with the same key have identical attack graphs.
func shapeKey(q cq.Query) string {
	return maskShape(q).String()
}

func certainFOBaseline(g *govern.Governor, q cq.Query, d *db.DB, memo map[string]int) (bool, error) {
	if err := g.Step(); err != nil {
		return false, err
	}
	if q.IsEmpty() {
		return true, nil
	}
	key := shapeKey(q)
	idx, ok := memo[key]
	if !ok {
		g, err := core.BuildAttackGraph(q, jointree.TieBreakLex)
		if err != nil {
			return false, err
		}
		un := g.Unattacked()
		if len(un) == 0 {
			return false, fmt.Errorf("solver: CertainFO requires an acyclic attack graph: %s", q)
		}
		idx = un[0]
		memo[key] = idx
	}
	F := q.Atoms[idx]
	rest := q.Without(idx)
	for _, block := range candidateBlocksSeed(d, F) {
		blockOK := true
		for _, A := range block {
			theta, ok := engine.MatchAtom(F, A, cq.Valuation{})
			if !ok {
				blockOK = false
				break
			}
			sub, err := certainFOBaseline(g, rest.Substitute(theta), d, memo)
			if err != nil {
				return false, err
			}
			if !sub {
				blockOK = false
				break
			}
		}
		if blockOK {
			return true, nil
		}
	}
	return false, nil
}

// blocksOfSeed re-derives the blocks of the given relation from a full
// relation scan, as the seed revision did on every recursive step.
func blocksOfSeed(d *db.DB, rel string) [][]db.Fact {
	var out [][]db.Fact
	seen := make(map[string]bool)
	for _, f := range d.FactsOf(rel) {
		bid := f.BlockID()
		if seen[bid] {
			continue
		}
		seen[bid] = true
		out = append(out, d.Block(f))
	}
	return out
}

// candidateBlocksSeed returns the blocks of a's relation that can match a,
// re-deriving block lists per call: the one block of a ground key, else
// every block.
func candidateBlocksSeed(d *db.DB, a cq.Atom) [][]db.Fact {
	key := make([]string, a.KeyLen)
	for i := 0; i < a.KeyLen; i++ {
		if a.Args[i].IsVar() {
			return blocksOfSeed(d, a.Rel)
		}
		key[i] = a.Args[i].Value
	}
	block := d.Block(db.Fact{Rel: a.Rel, KeyLen: a.KeyLen, Args: key})
	if len(block) == 0 {
		return nil
	}
	return [][]db.Fact{block}
}
