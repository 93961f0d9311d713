// Package shard partitions a CERTAINTY(q) instance into independent
// sub-instances that can be solved in parallel and recombined exactly.
//
// The partition works at two levels. First the query splits into its
// variable-disjoint connected components q = q₁ ∧ … ∧ q_m; a repair
// satisfies q iff it satisfies every qⱼ, and satisfaction of qⱼ depends only
// on the facts of qⱼ's relations, so
//
//	certain(q, db) = ∧ⱼ certain(qⱼ, dbⱼ).
//
// Second, for one connected qⱼ, the facts of its relations split by the
// connected components of the fact co-occurrence graph: facts in the same
// block are linked (a repair picks exactly one of them), and facts sharing a
// constant at positions of the same query variable are linked (they could be
// assigned by one embedding). Every embedding of the connected qⱼ maps atoms
// that share variables to facts that agree on those variables' values, so
// the embedding's image is connected in the graph and lies inside a single
// component D₁ … D_k. A repair of dbⱼ is an independent choice of repairs of
// the components, and it satisfies qⱼ iff some component's part does, so
//
//	certain(qⱼ, dbⱼ) = ∨ᵢ certain(qⱼ, Dᵢ),
//	♯sat(qⱼ, dbⱼ)    = ∏ᵢ Nᵢ − ∏ᵢ (Nᵢ − sᵢ)      (Nᵢ repairs, sᵢ satisfying),
//	Pr(qⱼ | dbⱼ)     = 1 − ∏ᵢ (1 − Pr(qⱼ | Dᵢ))   (uniform repairs).
//
// The graph links conservatively — sharing a value at some variable's
// positions does not mean an embedding actually uses both facts — so the
// partition may be coarser than optimal, but coarser is always sound: the
// invariant that no embedding crosses a shard boundary is preserved by any
// merging of components. Blocks of relations outside q multiply the repair
// count and cancel out of certainty and probability.
//
// The package computes only the decomposition; the solver layer runs the
// per-shard decisions (internal/solver), and the counting layer applies the
// product/convolution algebra (internal/prob). Both fan out on the bounded
// worker pool in pool.go, which draws from the process-wide govern.Workers
// gate so nested layers (a shard join inside a batch) never multiply
// goroutines.
package shard

import (
	"sort"
	"sync"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
)

// Decomposition telemetry: decompositions performed and the data shards they
// produced. Aggregate counters; the per-shard identity rides on the solver's
// spans (one span per shard with comp/shard attributes).
var (
	decomposeTotal = obs.Default.Counter("shard_decompose_total")
	instancesTotal = obs.Default.Counter("shard_instances_total")
)

func init() {
	obs.Default.Help("shard_decompose_total", "Instance decompositions computed by the shard layer.")
	obs.Default.Help("shard_instances_total", "Independent sub-instances produced across all decompositions.")
}

// Decomposition is the exact split of one (query, database) instance:
// Components[j] is the j-th variable-disjoint query component and Shards[j]
// its independent data shards, each a union of whole blocks and closed under
// the fact co-occurrence graph. IrrelevantBlocks are the sizes of the blocks
// whose relation does not occur in the query; they multiply repair counts
// and are irrelevant to certainty.
type Decomposition struct {
	Query            cq.Query
	Components       []cq.Query
	Shards           [][]*db.DB
	IrrelevantBlocks []int

	// Blocks[j][i] is the sorted list of block IDs (Fact.BlockID) making up
	// shard i of component j. Together with the parent database's per-block
	// digests it determines the shard's content exactly, which is what
	// ShardFingerprint hashes.
	Blocks [][][]string

	// blockRel maps each relevant block ID to its relation name, so
	// fingerprinting can look the block's digest up in the parent database
	// without parsing the ID.
	blockRel map[string]string

	// compKeys memoizes the canonical key of each query component, filled
	// lazily under fpMu by ShardFingerprint.
	fpMu     sync.Mutex
	compKeys []string
}

// NumShards is the total number of data shards across all query components.
func (dec *Decomposition) NumShards() int {
	n := 0
	for _, s := range dec.Shards {
		n += len(s)
	}
	return n
}

// MaxComponentShards is the largest shard count of any single query
// component — the width of the disjunction the solver joins.
func (dec *Decomposition) MaxComponentShards() int {
	m := 0
	for _, s := range dec.Shards {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// varOcc is one occurrence of a multi-occurrence variable: relation rel,
// argument position pos.
type varOcc struct {
	v   string
	pos int
}

// Decompose partitions (q, d) as described in the package comment.
// maxShards, when positive, caps the number of data shards per query
// component: co-occurrence components are then packed into at most maxShards
// groups, largest-first onto the least-loaded group, which balances shard
// sizes for the worker pool. maxShards ≤ 0 keeps one shard per component
// (maximum parallelism). Query components containing a self-join are never
// data-sharded (two facts of one relation can co-occur in an embedding
// without sharing any value, so the co-occurrence graph argument needs
// self-join-freedom); they come back as a single shard.
func Decompose(q cq.Query, d *db.DB, maxShards int) *Decomposition {
	decomposeTotal.Inc()
	dec := &Decomposition{Query: q}

	// Query components, and each relation's component. A variable occurs in
	// exactly one component, so the per-variable buckets below can never link
	// facts across components; relations are unique per component for
	// self-join-free queries, and self-joining components opt out of data
	// sharding anyway.
	comps := q.ConnectedComponents()
	relComp := make(map[string]int)
	selfJoin := make([]bool, len(comps))
	for j, comp := range comps {
		atoms := make([]cq.Atom, len(comp))
		for i, idx := range comp {
			atoms[i] = q.Atoms[idx]
		}
		sub := cq.Query{Atoms: atoms}
		dec.Components = append(dec.Components, sub)
		selfJoin[j] = sub.HasSelfJoin()
		for _, a := range atoms {
			relComp[a.Rel] = j
		}
	}

	// Occurrence lists of multi-occurrence variables, grouped by relation: a
	// variable occurring once cannot link two facts. Occurrences in q's order
	// keep the bucket construction deterministic.
	occCount := make(map[string]int)
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				occCount[t.Value]++
			}
		}
	}
	relOccs := make(map[string][]varOcc)
	for _, a := range q.Atoms {
		for pos, t := range a.Args {
			if t.IsVar() && occCount[t.Value] > 1 {
				relOccs[a.Rel] = append(relOccs[a.Rel], varOcc{v: t.Value, pos: pos})
			}
		}
	}

	// One union-find pass over the whole database. Facts of irrelevant
	// relations contribute their block sizes and drop out; relevant facts are
	// linked within their block and through the (variable, value) buckets.
	facts := d.Facts()
	parent := make([]int, len(facts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	irrelevantBlocks := make(map[string]int)
	blockFirst := make(map[string]int)
	blockRel := make(map[string]string)
	bucketFirst := make(map[string]int)
	factComp := make([]int, len(facts)) // query component of each fact; -1 irrelevant
	for i, f := range facts {
		j, ok := relComp[f.Rel]
		if !ok {
			factComp[i] = -1
			irrelevantBlocks[f.BlockID()]++
			continue
		}
		factComp[i] = j
		bid := f.BlockID()
		if first, seen := blockFirst[bid]; seen {
			union(i, first)
		} else {
			blockFirst[bid] = i
			blockRel[bid] = f.Rel
		}
		for _, oc := range relOccs[f.Rel] {
			if oc.pos >= len(f.Args) {
				continue // arity mismatch with the query; the fact matches no atom
			}
			key := oc.v + "\x00" + f.Args[oc.pos]
			if first, seen := bucketFirst[key]; seen {
				union(i, first)
			} else {
				bucketFirst[key] = i
			}
		}
	}

	// Collect co-occurrence components per query component, ordered by first
	// fact index so the decomposition is deterministic for a given database.
	rootIdx := make(map[int]int) // union-find root -> index into cocomps
	var cocomps []cocomp
	cocompOf := make([]int, len(facts))
	perComp := make([][]int, len(comps)) // query comp -> its cocomp indexes in first-fact order
	for i := range facts {
		if factComp[i] < 0 {
			cocompOf[i] = -1
			continue
		}
		r := find(i)
		ci, seen := rootIdx[r]
		if !seen {
			ci = len(cocomps)
			rootIdx[r] = ci
			cocomps = append(cocomps, cocomp{first: i})
			perComp[factComp[i]] = append(perComp[factComp[i]], ci)
		}
		cocomps[ci].size++
		cocompOf[i] = ci
	}

	// Pack each query component's co-occurrence components into shard groups
	// and assign every group a global index, then materialize all groups in
	// one validated pass over the facts.
	groupOf := make([]int, len(cocomps))
	totalGroups := 0
	groupsPer := make([]int, len(comps))
	for j, cis := range perComp {
		want := len(cis)
		if selfJoin[j] || (maxShards > 0 && want > maxShards) {
			want = maxShards
			if selfJoin[j] {
				want = 1
			}
		}
		if want < 1 && len(cis) > 0 {
			want = len(cis)
		}
		groupsPer[j] = assignGroups(cis, cocomps, groupOf, want, totalGroups)
		totalGroups += groupsPer[j]
	}
	parts := d.PartitionFacts(totalGroups, func(i int, _ db.Fact) int {
		if cocompOf[i] < 0 {
			return -1
		}
		return groupOf[cocompOf[i]]
	})
	// Record each shard's block-ID list: a block lies entirely within one
	// co-occurrence component (its facts are unioned pairwise above), so the
	// block → group assignment is a function of the block's first fact.
	// Sorted lists make the fingerprints insertion-order independent.
	shardBlocks := make([][]string, totalGroups)
	for bid, i := range blockFirst {
		shardBlocks[groupOf[cocompOf[i]]] = append(shardBlocks[groupOf[cocompOf[i]]], bid)
	}
	for _, bids := range shardBlocks {
		sort.Strings(bids)
	}
	dec.blockRel = blockRel

	base := 0
	dec.Shards = make([][]*db.DB, len(comps))
	dec.Blocks = make([][][]string, len(comps))
	for j := range comps {
		dec.Shards[j] = parts[base : base+groupsPer[j] : base+groupsPer[j]]
		dec.Blocks[j] = shardBlocks[base : base+groupsPer[j] : base+groupsPer[j]]
		base += groupsPer[j]
	}

	for _, n := range irrelevantBlocks {
		dec.IrrelevantBlocks = append(dec.IrrelevantBlocks, n)
	}
	sort.Ints(dec.IrrelevantBlocks)
	instancesTotal.Add(uint64(dec.NumShards()))
	return dec
}

// cocomp is one connected component of the fact co-occurrence graph: the
// index of its first fact (for deterministic ordering) and its fact count
// (for balanced packing).
type cocomp struct {
	first int
	size  int
}

// assignGroups packs the co-occurrence components cis into at most want
// groups (longest-processing-time greedy: components sorted by size
// descending, ties broken by first fact index, each placed on the currently
// lightest group). It writes base-offset group numbers into groupOf and
// returns how many groups were used.
func assignGroups(cis []int, cocomps []cocomp, groupOf []int, want, base int) int {
	if len(cis) == 0 {
		return 0
	}
	if want >= len(cis) {
		// One group per component, in first-fact order.
		for g, ci := range cis {
			groupOf[ci] = base + g
		}
		return len(cis)
	}
	order := make([]int, len(cis))
	copy(order, cis)
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cocomps[order[a]], cocomps[order[b]]
		if ca.size != cb.size {
			return ca.size > cb.size
		}
		return ca.first < cb.first
	})
	load := make([]int, want)
	for _, ci := range order {
		g := 0
		for k := 1; k < want; k++ {
			if load[k] < load[g] {
				g = k
			}
		}
		load[g] += cocomps[ci].size
		groupOf[ci] = base + g
	}
	return want
}
