package solver

import (
	"context"
	"fmt"
	"math/big"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// Method identifies the decision procedure used for a CERTAINTY(q) instance.
type Method int

const (
	// MethodFO is the first-order rewriting procedure (Theorem 1).
	MethodFO Method = iota
	// MethodTerminal is the Theorem 3 polynomial algorithm.
	MethodTerminal
	// MethodACk is the Theorem 4 graph-marking algorithm.
	MethodACk
	// MethodCk is the Corollary 1 algorithm.
	MethodCk
	// MethodFalsifying is the pruned exponential falsifying-repair search,
	// used for coNP-complete and open-classified queries.
	MethodFalsifying
	// MethodBruteForce is full repair enumeration (ground truth).
	MethodBruteForce
	// MethodSafeRewriting evaluates the Theorem 6 certain rewriting; used
	// for safe queries without a join tree (cyclic hypergraph).
	MethodSafeRewriting
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodFO:
		return "first-order rewriting (Theorem 1)"
	case MethodTerminal:
		return "terminal weak cycles (Theorem 3)"
	case MethodACk:
		return "AC(k) graph marking (Theorem 4)"
	case MethodCk:
		return "C(k) graph marking (Corollary 1)"
	case MethodFalsifying:
		return "falsifying-repair search"
	case MethodBruteForce:
		return "brute-force repair enumeration"
	case MethodSafeRewriting:
		return "safe-query rewriting (Theorem 6)"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Result reports a CERTAINTY(q) decision together with how it was obtained.
type Result struct {
	Certain        bool                `json:"certain"`
	Method         Method              `json:"method"`
	Classification core.Classification `json:"classification"`
	// Simplified is non-nil when an equivalence-preserving rewrite moved
	// the instance to a more tractable class before solving; the
	// Classification field still reports the paper-faithful class of the
	// original query, and SimplifiedClass the class actually solved.
	Simplified      *Simplification `json:"simplified,omitempty"`
	SimplifiedClass core.Class      `json:"simplified_class"`
}

// SelfCheck runs the dispatched solver and, when the repair space is small
// enough (at most maxRepairs), cross-checks it against brute-force
// enumeration. It returns the dispatched result; a mismatch — which would
// indicate a bug — is reported as an error. Intended as a debugging aid
// for downstream integrations.
func SelfCheck(q cq.Query, d *db.DB, maxRepairs int64) (Result, error) {
	v, err := SolveCtx(context.Background(), q, d, Options{})
	if err != nil {
		return Result{}, err
	}
	res := v.Result
	if d.NumRepairs().Cmp(big.NewInt(maxRepairs)) > 0 {
		return res, nil
	}
	if brute := BruteForce(q, d); brute != res.Certain {
		return res, fmt.Errorf("solver: self-check failed: %s reports %v, enumeration %v (please report this)",
			res.Method, res.Certain, brute)
	}
	return res, nil
}
