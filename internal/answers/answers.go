// Package answers lifts the Boolean CERTAINTY machinery to queries with
// free variables, the form downstream applications actually ask. The paper
// notes that "the restriction to Boolean queries simplifies the technical
// treatment, but is not fundamental": a tuple ā is a certain answer for
// q(x̄) iff the Boolean query q[x̄ ↦ ā] holds in every repair.
package answers

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"strings"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/prob"
	"github.com/cqa-go/certainty/internal/shard"
	"github.com/cqa-go/certainty/internal/solver"
)

// Answer is one result tuple, in the order of the requested free variables.
type Answer []string

// Key renders the answer canonically for dedup and sorting.
func (a Answer) Key() string { return strings.Join(a, "\x00") }

// Result carries the certain and possible answers of a query.
type Result struct {
	// Free lists the free variables, fixing the column order.
	Free []string
	// Certain holds the tuples ā with q[x̄↦ā] true in every repair.
	Certain []Answer
	// Possible holds the tuples true in at least one repair; the certain
	// answers are a subset.
	Possible []Answer
}

// Possible computes the possible answers of q with the given free
// variables: projections of the embeddings of q in d. For self-join-free
// queries every embedding image is consistent and therefore extends to a
// repair, so "some repair satisfies q[x̄↦ā]" coincides with "d satisfies
// q[x̄↦ā]".
func Possible(q cq.Query, free []string, d *db.DB) ([]Answer, error) {
	if err := checkFree(q, free); err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []Answer
	engine.EachEmbedding(q, d, func(v cq.Valuation) bool {
		a := make(Answer, len(free))
		for i, x := range free {
			a[i] = v[x]
		}
		if k := a.Key(); !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
		return true
	})
	sortAnswers(out)
	return out, nil
}

// Certain computes the certain answers of q with the given free variables.
// Candidates are the possible answers (certain ⊆ possible, since every
// repair is a subset of d); they are decided on the shared worker pool and
// come back in candidate order. Outside the rewriting fast path below,
// each candidate's Boolean instantiation is decided by solver.SolveCtx
// under ctx, with opts applying to each candidate's solve; a candidate
// whose solve is cut off (an unknown verdict) fails the call with its
// cutoff error.
func Certain(ctx context.Context, q cq.Query, free []string, d *db.DB, opts solver.Options) (*Result, error) {
	possible, err := Possible(q, free, d)
	if err != nil {
		return nil, err
	}
	res := &Result{Free: append([]string(nil), free...), Possible: possible}
	// Fast path: when freezing the free variables yields an acyclic attack
	// graph, build the certain rewriting once, compile it, and evaluate it
	// per candidate, instead of re-classifying per candidate.
	var compiled *fo.Compiled
	if len(free) > 0 && fo.CanRewriteFree(q, free) {
		if f, err := fo.RewriteAcyclicFree(q, free); err == nil {
			if c, err := fo.Compile(f); err == nil {
				compiled = c
			}
		}
	}
	certain := make([]bool, len(possible))
	errs := make([]error, len(possible))
	err = shard.ForEach(ctx, len(possible), func(i int) {
		v := make(cq.Valuation, len(free))
		for k, x := range free {
			v[x] = possible[i][k]
		}
		if compiled != nil {
			certain[i], errs[i] = compiled.EvalWith(d, v)
			return
		}
		verdict, err := solver.SolveCtx(ctx, q.Substitute(v), d, opts)
		if err == nil && verdict.Outcome == solver.OutcomeUnknown {
			err = verdict.Err
		}
		certain[i], errs[i] = verdict.Outcome == solver.OutcomeCertain, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err != nil {
		return nil, err
	}
	for i, ok := range certain {
		if ok {
			res.Certain = append(res.Certain, possible[i])
		}
	}
	return res, nil
}

// CertainBruteForce is the enumeration-based ground truth for Certain.
func CertainBruteForce(q cq.Query, free []string, d *db.DB) ([]Answer, error) {
	possible, err := Possible(q, free, d)
	if err != nil {
		return nil, err
	}
	var out []Answer
	for _, a := range possible {
		v := make(cq.Valuation, len(free))
		for i, x := range free {
			v[x] = a[i]
		}
		if solver.BruteForce(q.Substitute(v), d) {
			out = append(out, a)
		}
	}
	return out, nil
}

func checkFree(q cq.Query, free []string) error {
	vars := q.Vars()
	seen := make(map[string]bool, len(free))
	for _, x := range free {
		if !vars.Has(x) {
			return fmt.Errorf("answers: free variable %s does not occur in %s", x, q)
		}
		if seen[x] {
			return fmt.Errorf("answers: duplicate free variable %s", x)
		}
		seen[x] = true
	}
	return nil
}

func sortAnswers(as []Answer) {
	sort.Slice(as, func(i, j int) bool { return as[i].Key() < as[j].Key() })
}

// AnswerProbability pairs an answer with its probability under uniform
// repair semantics.
type AnswerProbability struct {
	Answer Answer
	// Pr is the exact probability that q[x̄↦answer] holds in a uniformly
	// random repair.
	Pr *big.Rat
}

// WithProbabilities returns every possible answer together with its exact
// uniform-repair probability (♯satisfying repairs / ♯repairs). Certain
// answers are exactly those with probability 1. Exponential in the number
// of multi-fact blocks of q's relations (world enumeration per candidate);
// use sampling for large databases.
func WithProbabilities(q cq.Query, free []string, d *db.DB) ([]AnswerProbability, error) {
	possible, err := Possible(q, free, d)
	if err != nil {
		return nil, err
	}
	out := make([]AnswerProbability, 0, len(possible))
	for _, a := range possible {
		v := make(cq.Valuation, len(free))
		for i, x := range free {
			v[x] = a[i]
		}
		out = append(out, AnswerProbability{
			Answer: a,
			Pr:     prob.UniformProbability(q.Substitute(v), d),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pr.Cmp(out[j].Pr) > 0 })
	return out, nil
}
