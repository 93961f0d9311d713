package shard

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// Partition is the block co-occurrence partition of one query over a
// database, kept across versions of that database: Sync diffs the
// database's content digests against the ones recorded at the previous
// sync and re-links only the blocks whose content changed, together with
// the components those blocks belonged to or now reach. Every other
// component keeps its block list and its fingerprint, so after a one-block
// write a sync costs the size of that block's component, not of the
// database.
//
// Because the diff is by content, one Sync is correct whatever happened
// between two calls: an in-place mutation of one *db.DB, several versions,
// or an older snapshot after a newer one. A maintained partition and a
// fresh one synced to the same database produce the same decomposition,
// byte for byte. Safe for concurrent use; syncs are serialized.
type Partition struct {
	mu sync.Mutex

	q          cq.Query
	components []cq.Query // query components, merged where they share a relation
	compKeys   []string   // canonical key of each query component

	rels    map[string]*relState // relations of q: join positions and synced blocks
	buckets map[string]*bucket   // join key → the blocks holding a fact with that value there
	comps   [][]*component       // per query component, ordered by smallest block ID
	epoch   uint64               // sync counter, for the visited marks of one sync
}

// relState is one relation of the query: the query component it belongs to,
// the positions that link its facts to others, and its blocks as of the last
// sync.
type relState struct {
	comp   int
	occs   []varOcc // positions of variables occurring more than once in q
	link   []string // the one join key of every block, for self-joining components
	digest string   // the relation's content digest at the last sync
	blocks map[string]*blockState
}

// varOcc is one occurrence of a multi-occurrence variable v at argument
// position pos of an atom over the relation that lists it.
type varOcc struct {
	v   string
	pos int
}

// blockState is one block as of the last sync: its content digest (a copy,
// never the database's live map), its join keys and its component.
type blockState struct {
	id, rel string
	digest  string
	keys    []string // sorted, distinct join keys of the block's facts
	size    int      // facts, for balanced packing
	comp    *component
	seen    uint64 // epoch of the sync that last visited the block
}

// bucket is the set of blocks sharing one join key.
type bucket struct {
	blocks []*blockState
	seen   uint64
}

// component is one connected component of the block co-occurrence graph.
// Its block list is handed to the shard memo and shared by every later
// decomposition, so it is never modified once the component has formed; a
// change to one of its blocks replaces the component.
type component struct {
	blocks []string // sorted block IDs
	rels   []string // relation of each block
	size   int      // facts
	fp     atomic.Pointer[string]
}

// fingerprint returns the component's shard fingerprint, computing it on
// first use. Every database the component appears in agrees on the digests
// of its blocks (a changed block would have replaced the component), so
// whichever caller computes it first computes the same value.
func (c *component) fingerprint(key string, d *db.DB) string {
	if fp := c.fp.Load(); fp != nil {
		return *fp
	}
	fp := fingerprint(key, d, c.rels, c.blocks)
	c.fp.Store(&fp)
	return fp
}

// SyncStats accounts for one Sync: the blocks whose content appeared,
// changed or vanished since the previous sync, the components formed by
// this sync (all of them on a fresh partition), and the components the
// partition holds afterwards.
type SyncStats struct {
	Touched    int
	Rebuilt    int
	Components int
}

// NewPartition returns an empty partition for q; the first Sync builds it.
func NewPartition(q cq.Query) *Partition {
	pt := &Partition{
		q:       q,
		rels:    make(map[string]*relState),
		buckets: make(map[string]*bucket),
	}
	for j, idxs := range queryComponents(q) {
		atoms := make([]cq.Atom, len(idxs))
		for i, idx := range idxs {
			atoms[i] = q.Atoms[idx]
		}
		sub := cq.Query{Atoms: atoms}
		pt.components = append(pt.components, sub)
		pt.compKeys = append(pt.compKeys, cq.CanonicalKey(sub))
		var link []string
		if sub.HasSelfJoin() {
			// A key no variable-value pair can produce (variable names are
			// never empty) links every block of the component.
			link = []string{"\x00" + strconv.Itoa(j)}
		}
		for _, a := range atoms {
			if pt.rels[a.Rel] == nil {
				pt.rels[a.Rel] = &relState{comp: j, link: link, blocks: make(map[string]*blockState)}
			}
		}
	}
	pt.comps = make([][]*component, len(pt.components))

	// Occurrence lists of multi-occurrence variables, grouped by relation: a
	// variable occurring once cannot link two facts. A variable occurs in
	// exactly one query component, so its keys never link blocks across
	// components.
	occCount := make(map[string]int)
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				occCount[t.Value]++
			}
		}
	}
	for _, a := range q.Atoms {
		rs := pt.rels[a.Rel]
		for pos, t := range a.Args {
			if rs.link == nil && t.IsVar() && occCount[t.Value] > 1 {
				rs.occs = append(rs.occs, varOcc{v: t.Value, pos: pos})
			}
		}
	}
	return pt
}

// Sync brings the partition up to date with d and returns d's
// decomposition, with the co-occurrence components packed into shards as
// described at Decompose; only Decompose fills IrrelevantBlocks, which the
// solver never reads. The partition's lock is held throughout, so the
// decomposition always reflects exactly d.
//
// A relation whose content digest equals the one recorded at the last sync
// is skipped. In a changed relation, a block whose digest appeared,
// vanished or changed is touched. A component dissolves when it contains a
// touched block or when a join key of a re-linked block reaches it; the
// blocks of dissolved components and the touched blocks are then linked
// anew on their own.
func (pt *Partition) Sync(d *db.DB, maxShards int) (*Decomposition, SyncStats) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	st := pt.sync(d)
	dec := pt.pack(d, maxShards)
	decomposeTotal.Inc()
	instancesTotal.Add(uint64(dec.NumShards()))
	return dec, st
}

// sync diffs d against the recorded state and re-links the touched part.
func (pt *Partition) sync(d *db.DB) SyncStats {
	var st SyncStats
	var relink []*blockState // touched blocks still present
	dissolved := make(map[*component]bool)
	dissolve := func(b *blockState) {
		if b.comp != nil {
			dissolved[b.comp] = true
			b.comp = nil
		}
	}
	for name, rs := range pt.rels {
		digest := d.RelationDigest(name)
		if digest == rs.digest {
			continue
		}
		rs.digest = digest
		current := d.BlockDigests(name) // nil when the relation is gone
		before, kept := len(rs.blocks), 0
		for bid, bd := range current {
			b := rs.blocks[bid]
			if b == nil {
				b = &blockState{id: bid, rel: name}
				rs.blocks[bid] = b
			} else {
				kept++
				if b.digest == bd {
					continue
				}
			}
			b.digest = bd
			facts := d.BlockFacts(name, bid)
			b.size = len(facts)
			dissolve(b)
			pt.rekey(b, rs.joinKeys(facts))
			relink = append(relink, b)
		}
		if kept < before {
			for bid, b := range rs.blocks {
				if _, ok := current[bid]; !ok {
					dissolve(b)
					pt.rekey(b, nil)
					delete(rs.blocks, bid)
					st.Touched++
				}
			}
		}
	}
	st.Touched += len(relink)

	// Re-link: the touched blocks plus the remaining blocks of every
	// component they dissolved. The walk from each unvisited block collects
	// its new component and dissolves any old component it reaches.
	for c := range dissolved {
		for i, bid := range c.blocks {
			if b := pt.rels[c.rels[i]].blocks[bid]; b != nil && b.comp == c {
				relink = append(relink, b)
			}
		}
	}
	pt.epoch++
	fresh := make([][]*component, len(pt.comps))
	for _, b := range relink {
		if b.seen == pt.epoch {
			continue
		}
		c := pt.collect(b, dissolved)
		j := pt.rels[b.rel].comp
		fresh[j] = append(fresh[j], c)
		st.Rebuilt++
	}

	// Replace each changed component list by a new slice: decompositions
	// taken earlier still read the old one.
	changed := make([]bool, len(pt.comps))
	for c := range dissolved {
		changed[pt.rels[c.rels[0]].comp] = true
	}
	for j, cs := range pt.comps {
		if changed[j] || len(fresh[j]) > 0 {
			pt.comps[j] = mergeComponents(cs, fresh[j], dissolved)
		}
		st.Components += len(pt.comps[j])
	}
	return st
}

// collect walks the co-occurrence graph from b over the current join keys,
// marks every block it reaches as visited in this sync, dissolves the old
// components it meets, and returns the new component of the reached blocks.
func (pt *Partition) collect(b *blockState, dissolved map[*component]bool) *component {
	b.seen = pt.epoch
	members := []*blockState{b}
	for k := 0; k < len(members); k++ {
		for _, key := range members[k].keys {
			bk := pt.buckets[key]
			if bk.seen == pt.epoch {
				continue
			}
			bk.seen = pt.epoch
			for _, nb := range bk.blocks {
				if nb.seen == pt.epoch {
					continue
				}
				nb.seen = pt.epoch
				if nb.comp != nil {
					dissolved[nb.comp] = true
				}
				members = append(members, nb)
			}
		}
	}
	sort.Slice(members, func(x, y int) bool { return members[x].id < members[y].id })
	c := &component{blocks: make([]string, len(members)), rels: make([]string, len(members))}
	for i, m := range members {
		c.blocks[i], c.rels[i] = m.id, m.rel
		c.size += m.size
		m.comp = c
	}
	return c
}

// mergeComponents returns a new list of the components of old that were
// not dissolved together with the fresh ones, ordered by smallest block ID.
func mergeComponents(old, fresh []*component, dissolved map[*component]bool) []*component {
	sort.Slice(fresh, func(x, y int) bool { return fresh[x].blocks[0] < fresh[y].blocks[0] })
	out := make([]*component, 0, len(old)+len(fresh))
	for _, c := range old {
		if dissolved[c] {
			continue
		}
		for len(fresh) > 0 && fresh[0].blocks[0] < c.blocks[0] {
			out = append(out, fresh[0])
			fresh = fresh[1:]
		}
		out = append(out, c)
	}
	return append(out, fresh...)
}

// joinKeys returns the sorted, distinct join keys of a block's facts: one
// per (variable, value) at the positions of a multi-occurrence variable,
// skipping positions past a fact's arity (such a fact matches no atom).
func (rs *relState) joinKeys(facts []db.Fact) []string {
	if rs.link != nil {
		return rs.link
	}
	var keys []string
	for _, f := range facts {
		for _, oc := range rs.occs {
			if oc.pos < len(f.Args) {
				keys = append(keys, oc.v+"\x00"+f.Args[oc.pos])
			}
		}
	}
	sort.Strings(keys)
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// rekey moves b from the buckets of its recorded join keys to those of
// keys; a key in both keeps its bucket entry.
func (pt *Partition) rekey(b *blockState, keys []string) {
	old := b.keys
	i, k := 0, 0
	for i < len(old) || k < len(keys) {
		switch {
		case k == len(keys) || (i < len(old) && old[i] < keys[k]):
			pt.unlink(b, old[i])
			i++
		case i == len(old) || keys[k] < old[i]:
			bk := pt.buckets[keys[k]]
			if bk == nil {
				bk = &bucket{}
				pt.buckets[keys[k]] = bk
			}
			bk.blocks = append(bk.blocks, b)
			k++
		default:
			i++
			k++
		}
	}
	b.keys = keys
}

// unlink removes b from the bucket of key, dropping the bucket once empty.
func (pt *Partition) unlink(b *blockState, key string) {
	bk := pt.buckets[key]
	for i, x := range bk.blocks {
		if x == b {
			last := len(bk.blocks) - 1
			bk.blocks[i] = bk.blocks[last]
			bk.blocks[last] = nil
			bk.blocks = bk.blocks[:last]
			break
		}
	}
	if len(bk.blocks) == 0 {
		delete(pt.buckets, key)
	}
}

// pack turns the partition into d's decomposition: per query component,
// the co-occurrence components packed into shards.
func (pt *Partition) pack(d *db.DB, maxShards int) *Decomposition {
	dec := &Decomposition{
		Query:      pt.q,
		Components: pt.components,
		Blocks:     make([][][]string, len(pt.comps)),
		d:          d,
		compKeys:   pt.compKeys,
		groups:     make([][][]*component, len(pt.comps)),
	}
	for j, cs := range pt.comps {
		want := len(cs)
		if maxShards > 0 && want > maxShards {
			want = maxShards
		}
		groups := packGroups(cs, want)
		blocks := make([][]string, len(groups))
		for i, g := range groups {
			if len(g) == 1 {
				blocks[i] = g[0].blocks
				continue
			}
			for _, c := range g {
				blocks[i] = append(blocks[i], c.blocks...)
			}
			sort.Strings(blocks[i])
		}
		dec.groups[j], dec.Blocks[j] = groups, blocks
	}
	return dec
}
