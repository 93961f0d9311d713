package engine

import (
	"fmt"
	"strings"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// Plan describes how EachEmbedding evaluates a query on a database: the
// greedy atom order and, per step, whether the block index applies and how
// many candidate facts the step scans in the worst case.
type Plan struct {
	Steps []PlanStep
}

// PlanStep is one atom of the evaluation order.
type PlanStep struct {
	// AtomIndex is the position of the atom in the query.
	AtomIndex int
	// Atom is the rendered atom.
	Atom string
	// BoundVars counts the atom's variables bound by earlier steps.
	BoundVars int
	// KeyBound reports whether the whole primary key is determined when
	// the step runs (constants plus earlier bindings), enabling the block
	// index.
	KeyBound bool
	// Candidates is the worst-case number of facts scanned: the relation's
	// fact count, or the largest block when the key is bound.
	Candidates int
}

// Explain returns the evaluation plan EachEmbedding would use for q on d.
func Explain(q cq.Query, d *db.DB) Plan {
	order := orderAtoms(q, AllBlocks(d))
	bound := make(cq.VarSet)
	plan := Plan{Steps: make([]PlanStep, 0, len(order))}
	for _, idx := range order {
		a := q.Atoms[idx]
		step := PlanStep{
			AtomIndex: idx,
			Atom:      a.String(),
			BoundVars: a.Vars().Intersect(bound).Len(),
		}
		keyBound := true
		for i := 0; i < a.KeyLen; i++ {
			t := a.Args[i]
			if t.IsVar() && !bound.Has(t.Value) {
				keyBound = false
				break
			}
		}
		step.KeyBound = keyBound
		if keyBound {
			max := 0
			seen := make(map[string]int)
			for _, f := range d.FactsOf(a.Rel) {
				seen[f.BlockID()]++
				if seen[f.BlockID()] > max {
					max = seen[f.BlockID()]
				}
			}
			step.Candidates = max
		} else {
			step.Candidates = len(d.FactsOf(a.Rel))
		}
		bound.AddAll(a.Vars())
		plan.Steps = append(plan.Steps, step)
	}
	return plan
}

// String renders the plan, one step per line.
func (p Plan) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		access := "scan"
		if s.KeyBound {
			access = "block-index"
		}
		fmt.Fprintf(&b, "%d. %s  [%s, ≤%d candidates, %d vars bound]\n",
			i+1, s.Atom, access, s.Candidates, s.BoundVars)
	}
	return b.String()
}
