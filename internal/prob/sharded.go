package prob

import (
	"context"
	"math/big"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/shard"
)

// shardCounts holds one data shard's exact tallies: N repairs, s of which
// satisfy the component query.
type shardCounts struct {
	repairs    *big.Int
	satisfying *big.Int
}

// countShards enumerates every shard of dec in parallel on the worker pool
// and returns the per-component tallies. Enumeration within a shard is the
// exponential ♯CERTAINTY ground truth; the decomposition is what shrinks
// each exponent from "all blocks" to "blocks of one shard".
func countShards(dec *shard.Decomposition) [][]shardCounts {
	type flatShard struct{ comp, idx int }
	var flat []flatShard
	counts := make([][]shardCounts, len(dec.Components))
	for j, shards := range dec.Shards {
		counts[j] = make([]shardCounts, len(shards))
		for i := range shards {
			flat = append(flat, flatShard{comp: j, idx: i})
		}
	}
	_ = shard.ForEach(context.Background(), len(flat), func(k int) {
		fs := flat[k]
		di := dec.Shards[fs.comp][fs.idx]
		counts[fs.comp][fs.idx] = shardCounts{
			repairs:    di.NumRepairs(),
			satisfying: CountSatisfyingRepairs(dec.Components[fs.comp], di),
		}
	})
	return counts
}

// CountSatisfyingSharded counts the repairs of d satisfying q — the same
// number as CountSatisfyingRepairs — through the shard decomposition: with
// shard i of component qⱼ holding Nᵢ repairs of which sᵢ satisfy qⱼ,
//
//	♯sat(qⱼ, dⱼ) = ∏ᵢ Nᵢ − ∏ᵢ (Nᵢ − sᵢ)
//
// (a repair of dⱼ satisfies the connected qⱼ unless every shard's part
// falsifies it), components multiply, and so do the block sizes of
// relations outside q. Shards are enumerated in parallel on the worker
// pool. maxShards caps the shards per component as in shard.Decompose;
// maxShards ≤ 0 keeps the partition as fine as possible, which here is also
// the cheapest, since enumeration cost is exponential in shard width.
func CountSatisfyingSharded(q cq.Query, d *db.DB, maxShards int) *big.Int {
	dec := shard.Decompose(q, d, maxShards)
	return combineCounts(dec, countShards(dec))
}

// combineCounts folds per-shard tallies into the total satisfying-repair
// count: ∏ᵢNᵢ − ∏ᵢ(Nᵢ−sᵢ) per component, components and irrelevant-block
// sizes multiplied.
func combineCounts(dec *shard.Decomposition, counts [][]shardCounts) *big.Int {
	total := big.NewInt(1)
	for _, comp := range counts {
		if len(comp) == 0 {
			// No facts for this component's relations: no repair satisfies it.
			return big.NewInt(0)
		}
		allRepairs := big.NewInt(1)
		allFalsify := big.NewInt(1)
		for _, sc := range comp {
			allRepairs.Mul(allRepairs, sc.repairs)
			allFalsify.Mul(allFalsify, new(big.Int).Sub(sc.repairs, sc.satisfying))
		}
		total.Mul(total, allRepairs.Sub(allRepairs, allFalsify))
		if total.Sign() == 0 {
			return total
		}
	}
	for _, n := range dec.IrrelevantBlocks {
		total.Mul(total, big.NewInt(int64(n)))
	}
	return total
}

// UniformProbabilitySharded computes Pr(q) under uniform repair choice —
// the same rational as UniformProbability — through the shard
// decomposition: with pᵢ = sᵢ/Nᵢ the satisfaction probability of shard i of
// component qⱼ,
//
//	Pr(qⱼ | dⱼ) = 1 − ∏ᵢ (1 − pᵢ),   Pr(q | d) = ∏ⱼ Pr(qⱼ | dⱼ).
//
// Blocks outside q's relations cancel. Exact (big.Rat); shards are
// enumerated in parallel on the worker pool.
func UniformProbabilitySharded(q cq.Query, d *db.DB, maxShards int) *big.Rat {
	dec := shard.Decompose(q, d, maxShards)
	return combineProbability(countShards(dec))
}

// combineProbability folds per-shard tallies into Pr(q): 1 − ∏ᵢ(1−sᵢ/Nᵢ)
// per component, components multiplied.
func combineProbability(counts [][]shardCounts) *big.Rat {
	one := big.NewRat(1, 1)
	total := new(big.Rat).Set(one)
	for _, comp := range counts {
		if len(comp) == 0 {
			return new(big.Rat)
		}
		noneSat := new(big.Rat).Set(one)
		for _, sc := range comp {
			if sc.repairs.Sign() == 0 {
				// A relation present in the query but with an empty shard
				// cannot happen (shards are non-empty by construction); guard
				// against division by zero all the same.
				return new(big.Rat)
			}
			pi := new(big.Rat).SetFrac(sc.satisfying, sc.repairs)
			noneSat.Mul(noneSat, new(big.Rat).Sub(one, pi))
		}
		total.Mul(total, new(big.Rat).Sub(one, noneSat))
		if total.Sign() == 0 {
			return total
		}
	}
	return total
}
