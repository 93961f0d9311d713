package prob

import (
	"math/big"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
)

// ProbabilityByWorlds computes Pr(q) exactly by enumerating possible worlds
// (Definition 10): per block, either one fact is chosen or the block is
// absent (probability 1 − Σ block). Exponential in the number of blocks of
// q's relations; the ground truth for the safe-plan evaluator.
func ProbabilityByWorlds(q cq.Query, p *ProbDB) *big.Rat {
	rels := make(map[string]bool, q.Len())
	for _, a := range q.Atoms {
		rels[a.Rel] = true
	}
	// Facts of relations outside q never influence satisfaction, and their
	// choice probabilities sum to 1; restrict to the relevant blocks.
	var blocks [][]db.Fact
	for _, blk := range p.d.Blocks() {
		if rels[blk[0].Rel] {
			blocks = append(blocks, blk)
		}
	}
	one := big.NewRat(1, 1)
	total := new(big.Rat)
	world := db.New()
	var rec func(i int, weight *big.Rat)
	rec = func(i int, weight *big.Rat) {
		if weight.Sign() == 0 {
			return
		}
		if i == len(blocks) {
			if engine.Eval(q, world) {
				total.Add(total, weight)
			}
			return
		}
		// Absent block.
		absent := new(big.Rat).Set(one)
		for _, f := range blocks[i] {
			absent.Sub(absent, p.probs[f.ID()])
		}
		rec(i+1, new(big.Rat).Mul(weight, absent))
		// One fact chosen.
		for _, f := range blocks[i] {
			next := world.Clone()
			if err := next.Add(f); err != nil {
				panic(err)
			}
			saved := world
			world = next
			rec(i+1, new(big.Rat).Mul(weight, p.probs[f.ID()]))
			world = saved
		}
	}
	rec(0, new(big.Rat).Set(one))
	return total
}

// CountSatisfyingRepairs counts the repairs of d that satisfy q — the
// ♯CERTAINTY(q) problem — by enumeration.
func CountSatisfyingRepairs(q cq.Query, d *db.DB) *big.Int {
	count := new(big.Int)
	one := big.NewInt(1)
	d.EachRepair(func(r []db.Fact) bool {
		if engine.EvalRepair(q, r) {
			count.Add(count, one)
		}
		return true
	})
	return count
}

// CountViaUniform computes ♯CERTAINTY(q) as Pr(q) · (number of repairs)
// under the uniform BID distribution, using the safe-plan evaluator; exact
// (big.Rat) and polynomial for safe queries. Fails on unsafe queries.
func CountViaUniform(q cq.Query, d *db.DB) (*big.Int, error) {
	pr, err := Probability(q, Uniform(d))
	if err != nil {
		return nil, err
	}
	total := d.NumRepairs()
	// count = pr × total; exact because pr is a rational whose denominator
	// divides the product of block sizes.
	num := new(big.Int).Mul(pr.Num(), total)
	count, rem := new(big.Int).QuoRem(num, pr.Denom(), new(big.Int))
	if rem.Sign() != 0 {
		// Cannot happen: Pr(q) has the form k/total.
		panic("prob: non-integral repair count")
	}
	return count, nil
}

// CertainViaProbability decides CERTAINTY(q) on db′ (the blocks of p whose
// mass is 1) via Proposition 1: the answer to PROBABILITY(q) on p is 1 iff
// db′ ∈ CERTAINTY(q). The probability is computed by world enumeration, so
// this works for unsafe queries too (exponentially).
func CertainViaProbability(q cq.Query, p *ProbDB) bool {
	return ProbabilityByWorlds(q, p).Cmp(big.NewRat(1, 1)) == 0
}

// UniformProbability is a convenience: Pr(q) on Uniform(d) by world
// enumeration, which equals ♯sat / ♯repairs exactly.
func UniformProbability(q cq.Query, d *db.DB) *big.Rat {
	return ProbabilityByWorlds(q, Uniform(d))
}
