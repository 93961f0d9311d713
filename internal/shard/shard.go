// Package shard partitions a CERTAINTY(q) instance into independent
// sub-instances that can be solved in parallel and recombined exactly.
//
// The partition works at two levels. First the query splits into its
// variable-disjoint connected components, and components that share a
// relation are merged, so that q = q₁ ∧ … ∧ q_m with the qⱼ reading
// pairwise disjoint relations. A repair of d is then an independent choice
// of repairs of the dⱼ (the facts of qⱼ's relations); it satisfies q iff it
// satisfies every qⱼ, and satisfaction of qⱼ depends only on dⱼ, so
//
//	certain(q, db) = ∧ⱼ certain(qⱼ, dbⱼ).
//
// Second, for one qⱼ, the blocks of its relations split by the connected
// components of the block co-occurrence graph: two blocks are linked when
// they hold facts sharing a constant at positions of the same query
// variable (they could be assigned by one embedding). Every embedding of the
// connected qⱼ maps atoms that share variables to facts that agree on those
// variables' values, so the embedding's image lies inside a single
// component D₁ … D_k, and each component is a union of whole blocks. A
// repair of dbⱼ is an independent choice of repairs of the components, and
// it satisfies qⱼ iff some component's part does, so
//
//	certain(qⱼ, dbⱼ) = ∨ᵢ certain(qⱼ, Dᵢ),
//	♯sat(qⱼ, dbⱼ)    = ∏ᵢ Nᵢ − ∏ᵢ (Nᵢ − sᵢ)      (Nᵢ repairs, sᵢ satisfying),
//	Pr(qⱼ | dbⱼ)     = 1 − ∏ᵢ (1 − Pr(qⱼ | Dᵢ))   (uniform repairs).
//
// The graph links conservatively — sharing a value at some variable's
// positions does not mean an embedding actually uses both facts — so the
// partition may be coarser than optimal, but coarser is always sound: the
// invariant that no embedding crosses a shard boundary is preserved by any
// merging of components. A qⱼ with a self-join is never data-sharded (two
// facts of one relation can co-occur in an embedding without sharing any
// value), so all of its blocks form one component. Blocks of relations
// outside q multiply the repair count and cancel out of certainty and
// probability.
//
// Every decomposition is the finest one: one shard per co-occurrence
// component. It confines the exponential search on coNP-hard queries
// (Theorem 2) to one component at a time, and it is the granularity at
// which a write changes the fewest shard fingerprints.
//
// The block partition is a Partition, which a sync keeps up to date across
// versions of a database through the relations' versions and change logs,
// so a re-solve after a small write re-links only the components the write
// touched; it also keeps the outcomes a memoized solve decided, per
// component (partition.go). The package computes only the decomposition;
// the solver layer runs the per-shard decisions (internal/solver), and the
// counting layer applies the product/convolution algebra (internal/prob).
// Both fan out on the bounded worker pool in pool.go, which draws from the
// process-wide govern.Workers gate so nested layers (a shard join inside a
// batch) never multiply goroutines.
package shard

import (
	"sort"

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
// Components[j] is the j-th query component, split into independent data
// shards, one per component of the block co-occurrence graph, each a union
// of whole blocks. IrrelevantBlocks are the sizes of the blocks whose
// relation does not occur in the query; they multiply repair counts and
// are irrelevant to certainty. A shard's database is built only when Shard
// asks for it.
//
// A decomposition lists its shards: all of them from Sync and Decompose,
// and from Partition.SyncOpen only those without a kept outcome, with Kept
// counting the rest. Shard and ShardFingerprint index the listed shards.
type Decomposition struct {
	Query            cq.Query
	Components       []cq.Query
	IrrelevantBlocks []int

	// Blocks[j][i] is the sorted list of block IDs (Fact.BlockID) making up
	// shard i of component j. Together with the parent database's blocks
	// it determines the shard's content exactly, which is what
	// ShardFingerprint hashes. Sync and Decompose fill it; SyncOpen leaves
	// it nil.
	Blocks [][][]string

	d        *db.DB         // the database the decomposition was taken from
	compKeys []string       // canonical key of each query component
	shards   [][]*component // shards[j][i]: the co-occurrence component that is listed shard i of component j
	kept     []keptCount    // per query component, the shards left unlisted (SyncOpen)
	pt       *Partition     // the partition Record keeps outcomes in (SyncOpen)
}

// keptCount is the part of a query component that SyncOpen leaves
// unlisted: its co-occurrence components with a kept outcome, and how many
// of those are certain.
type keptCount struct {
	decided, certain int
}

// NumShards is the total number of data shards across all query
// components, kept ones included.
func (dec *Decomposition) NumShards() int {
	n := 0
	for j, cs := range dec.shards {
		n += len(cs) + dec.kept[j].decided
	}
	return n
}

// ComponentShards is the number of listed shards of query component j.
func (dec *Decomposition) ComponentShards(j int) int { return len(dec.shards[j]) }

// Kept returns how many shards of query component j the decomposition
// leaves unlisted because their outcome is kept, and how many of those
// are certain. Both are 0 except from SyncOpen.
func (dec *Decomposition) Kept(j int) (decided, certain int) {
	return dec.kept[j].decided, dec.kept[j].certain
}

// Record keeps the conclusive outcome of listed shard i of query component
// j in the partition the decomposition came from, so later SyncOpen calls
// count the shard instead of listing it, for as long as its content does
// not change. A no-op unless the decomposition came from SyncOpen.
func (dec *Decomposition) Record(j, i int, certain bool) {
	if dec.pt == nil {
		return
	}
	dec.pt.mu.Lock()
	dec.pt.record(dec.shards[j][i], certain)
	dec.pt.mu.Unlock()
}

// Shard builds the database of listed shard i of query component j: the
// whole blocks of the parent database that make it up. Every call builds a
// new database, so callers build a shard when they solve or count it, and
// a shard whose verdict is memoized is never built.
func (dec *Decomposition) Shard(j, i int) *db.DB {
	c := dec.shards[j][i]
	return dec.d.WithBlocks(c.rels, c.blocks)
}

// Decompose partitions (q, d) as described in the package comment: a fresh
// Partition synced once to d. Query components containing a self-join come
// back as a single shard.
func Decompose(q cq.Query, d *db.DB) *Decomposition {
	pt := NewPartition(q)
	dec, _ := pt.Sync(d)
	sizes := make(map[string]int)
	for _, f := range d.Facts() {
		if _, relevant := pt.rels[f.Rel]; !relevant {
			sizes[f.BlockID()]++
		}
	}
	for _, n := range sizes {
		dec.IrrelevantBlocks = append(dec.IrrelevantBlocks, n)
	}
	sort.Ints(dec.IrrelevantBlocks)
	return dec
}

// queryComponents splits q into its connected components and merges the
// components that share a relation, returning each group's atom indexes in
// query order and the groups in order of their first atom. A merged group
// holds a self-join, so it is never data-sharded.
func queryComponents(q cq.Query) [][]int {
	comps := q.ConnectedComponents()
	parent := make([]int, len(comps))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	owner := make(map[string]int)
	for j, comp := range comps {
		for _, idx := range comp {
			rel := q.Atoms[idx].Rel
			if o, ok := owner[rel]; ok {
				parent[find(j)] = find(o)
			} else {
				owner[rel] = j
			}
		}
	}
	// ConnectedComponents lists components by first atom, so appending in
	// that order keeps the groups ordered by first atom too.
	var out [][]int
	slot := make(map[int]int)
	for j, comp := range comps {
		r := find(j)
		k, ok := slot[r]
		if !ok {
			k = len(out)
			slot[r] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], comp...)
	}
	for _, g := range out {
		sort.Ints(g)
	}
	return out
}
