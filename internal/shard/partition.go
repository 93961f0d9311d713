package shard

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// Partition is the block co-occurrence partition of one query over a
// database, kept across versions of that database: a sync re-links only
// the blocks that may have changed since the previous sync, together with
// the components they belonged to or now reach. Every other component
// keeps its block list, its fingerprint and its kept outcome, so after a
// one-block write a sync costs the size of that block's component, not of
// the database.
//
// The blocks to re-link are found through relation versions: a relation
// whose version is the one recorded at the last sync is skipped, and in a
// changed relation every block its change log names is re-linked
// (db.DB.ChangedBlocks). When the log does not reach back to the recorded
// version — the first sync, an older snapshot after a newer one, an
// unrelated database, more mutations than the log holds — every block the
// relation holds is re-linked and every recorded block it no longer holds
// is dropped. Neither path compares content: only a block the sync
// re-links or drops can differ from its recorded state, and re-linking an
// unchanged block rebuilds its component with the same blocks. So one sync
// is correct whatever happened between two calls, and a maintained
// partition and a fresh one synced to the same database produce the same
// decomposition, byte for byte.
//
// The partition also keeps the conclusive outcome of each co-occurrence
// component that a memoized solve decided (Decomposition.Record): per
// query component, the count of components kept certain and the list of
// components without an outcome, which SyncOpen hands out. An outcome is a
// function of the component's content, and a change to any of its blocks
// replaces the component, so a kept outcome never outlives its content.
// Safe for concurrent use; syncs are serialized.
type Partition struct {
	mu sync.Mutex

	q          cq.Query
	components []cq.Query // query components, merged where they share a relation
	compKeys   []string   // canonical key of each query component

	rels    map[string]*relState // relations of q: join positions and synced blocks
	buckets map[string]*bucket   // join key → the blocks holding a fact with that value there
	comps   [][]*component       // per query component, in no order (Sync sorts)
	epoch   uint64               // sync counter, for the marks of one sync

	certain []int          // per query component: components kept certain
	open    [][]*component // per query component: components without a kept outcome, after the last sync
}

// relState is one relation of the query: the query component it belongs to,
// the positions that link its facts to others, and its blocks as of the last
// sync.
type relState struct {
	comp    int
	occs    []varOcc // positions of variables occurring more than once in q
	link    []string // the one join key of every block, for self-joining components
	version uint64   // the relation's version at the last sync; 0 when absent
	blocks  map[string]*blockState
}

// varOcc is one occurrence of a multi-occurrence variable v at argument
// position pos of an atom over the relation that lists it.
type varOcc struct {
	v   string
	pos int
}

// blockState is one block as of the last sync: its join keys and its
// component.
type blockState struct {
	id, rel string
	keys    []string // sorted, distinct join keys of the block's facts
	comp    *component
	updated uint64 // epoch of the sync that last re-linked the block
	seen    uint64 // epoch of the sync that last visited the block
}

// bucket is the set of blocks sharing one join key.
type bucket struct {
	blocks []*blockState
	seen   uint64
}

// component is one connected component of the block co-occurrence graph.
// Its block list is shared by every later decomposition, so it is never
// modified once the component has formed; a change to one of its blocks
// replaces the component.
type component struct {
	blocks []string // sorted block IDs
	rels   []string // relation of each block
	j      int      // query component
	at     int      // index in the partition's comps[j]
	fp     atomic.Pointer[string]

	// Guarded by the partition's lock: the kept outcome, and whether a
	// sync dissolved the component.
	decided, certain, dead bool
}

// SyncStats accounts for one sync: the blocks it re-linked or dropped
// (those the change logs name, or every block of a rescanned relation),
// the components formed by this sync (all of them on a fresh partition),
// the components the partition holds afterwards, and the relations
// rescanned in full because their change log did not reach back to the
// last sync (every relation of the query present on a first sync).
type SyncStats struct {
	Touched    int
	Rebuilt    int
	Components int
	Rescanned  int
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
	pt.certain = make([]int, len(pt.components))
	pt.open = make([][]*component, len(pt.components))

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
// decomposition, one shard per co-occurrence component, in order of each
// component's smallest block ID, which makes the decomposition independent
// of the order of syncs and facts; only Decompose fills IrrelevantBlocks,
// which the solver never reads. The partition's lock is held throughout,
// so the decomposition always reflects exactly d.
//
// A component dissolves when it contains a re-linked or dropped block or
// when a join key of a re-linked block reaches it; the blocks of dissolved
// components and the re-linked blocks are then linked anew on their own.
func (pt *Partition) Sync(d *db.DB) (*Decomposition, SyncStats) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	st := pt.sync(d)
	dec := pt.newDecomposition(d)
	dec.Blocks = make([][][]string, len(pt.comps))
	for j := range pt.comps {
		cs := slices.Clone(pt.comps[j])
		slices.SortFunc(cs, func(x, y *component) int { return strings.Compare(x.blocks[0], y.blocks[0]) })
		dec.shards[j] = cs
		dec.Blocks[j] = make([][]string, len(cs))
		for i, c := range cs {
			dec.Blocks[j][i] = c.blocks
		}
	}
	decomposeTotal.Inc()
	instancesTotal.Add(uint64(dec.NumShards()))
	return dec, st
}

// SyncOpen brings the partition up to date with d and returns d's finest
// decomposition (one shard per co-occurrence component) listing only the
// shards without a kept outcome; Kept reports the others, and Record keeps
// the outcomes the caller decides. Nothing is built per kept component, so
// after a one-block write the call costs the touched components, not the
// partition. Blocks is left nil.
func (pt *Partition) SyncOpen(d *db.DB) (*Decomposition, SyncStats) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	st := pt.sync(d)
	dec := pt.newDecomposition(d)
	dec.pt = pt
	for j, open := range pt.open {
		dec.shards[j] = slices.Clone(open)
		dec.kept[j] = keptCount{decided: len(pt.comps[j]) - len(open), certain: pt.certain[j]}
	}
	decomposeTotal.Inc()
	instancesTotal.Add(uint64(dec.NumShards()))
	return dec, st
}

// Census returns the number of co-occurrence components the partition
// holds and how many of them have no kept outcome.
func (pt *Partition) Census() (components, undecided int) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for j, cs := range pt.comps {
		components += len(cs)
		for _, c := range pt.open[j] {
			if !c.dead && !c.decided {
				undecided++
			}
		}
	}
	return components, undecided
}

// record keeps c's conclusive outcome. A dissolved component may still be
// recorded by a solve of an older version, but no longer counts. The
// caller holds the lock.
func (pt *Partition) record(c *component, certain bool) {
	if c.decided {
		return
	}
	c.decided, c.certain = true, certain
	if certain && !c.dead {
		pt.certain[c.j]++
	}
}

// syncRun is the working state of one sync: the blocks re-linked, the
// components they dissolved, and the count of dropped blocks.
type syncRun struct {
	relink    []*blockState
	dissolved map[*component]bool
	vanished  int
}

func (run *syncRun) dissolve(b *blockState) {
	if b.comp != nil {
		run.dissolved[b.comp] = true
		b.comp = nil
	}
}

// sync re-links the blocks of d that may differ from the recorded state,
// and the touched part of the partition.
func (pt *Partition) sync(d *db.DB) SyncStats {
	var st SyncStats
	run := &syncRun{dissolved: make(map[*component]bool)}
	pt.epoch++
	for name, rs := range pt.rels {
		v := d.RelationVersion(name)
		if v == rs.version {
			continue
		}
		if bids, ok := d.ChangedBlocks(name, rs.version); ok {
			for _, bid := range bids {
				pt.update(run, d, rs, name, bid)
			}
		} else {
			st.Rescanned++
			pt.rescan(run, d, rs, name)
		}
		rs.version = v
	}
	st.Touched = len(run.relink) + run.vanished

	// Re-link: the updated blocks plus the remaining blocks of every
	// component they dissolved. The walk from each unvisited block collects
	// its new component and dissolves any old component it reaches.
	relink, dissolved := run.relink, run.dissolved
	for c := range dissolved {
		for i, bid := range c.blocks {
			if b := pt.rels[c.rels[i]].blocks[bid]; b != nil && b.comp == c {
				relink = append(relink, b)
			}
		}
	}
	fresh := make([][]*component, len(pt.comps))
	for _, b := range relink {
		if b.seen == pt.epoch {
			continue
		}
		c := pt.collect(b, dissolved)
		fresh[c.j] = append(fresh[c.j], c)
		st.Rebuilt++
	}

	// Swap the dissolved components for the fresh ones. Decompositions hold
	// their own copies of the lists, so the lists change in place.
	for c := range dissolved {
		c.dead = true
		if c.decided && c.certain {
			pt.certain[c.j]--
		}
		cs := pt.comps[c.j]
		last := cs[len(cs)-1]
		cs[c.at], last.at = last, c.at
		cs[len(cs)-1] = nil
		pt.comps[c.j] = cs[:len(cs)-1]
	}
	for j := range pt.comps {
		for _, c := range fresh[j] {
			c.at = len(pt.comps[j])
			pt.comps[j] = append(pt.comps[j], c)
		}
		// Outcomes recorded since the last sync close components too.
		open := pt.open[j][:0]
		for _, c := range pt.open[j] {
			if !c.dead && !c.decided {
				open = append(open, c)
			}
		}
		clear(pt.open[j][len(open):])
		pt.open[j] = append(open, fresh[j]...)
		st.Components += len(pt.comps[j])
	}
	return st
}

// rescan brings every block of relation name in line with d, listing d's
// blocks without hashing them: the fallback for a relation whose change
// log does not reach back to the last sync. Recorded blocks that d no
// longer holds are the ones the first pass left unmarked.
func (pt *Partition) rescan(run *syncRun, d *db.DB, rs *relState, name string) {
	for _, bid := range d.BlockIDs(name) { // nil when the relation is gone
		pt.update(run, d, rs, name, bid)
	}
	for bid, b := range rs.blocks {
		if b.updated != pt.epoch {
			pt.update(run, d, rs, name, bid)
		}
	}
}

// update brings block bid of relation name in line with d, once per sync
// (a change log may name a block more than once): a block d no longer
// holds leaves the partition, any other is re-keyed from its facts in d
// and queued for re-linking. Either way the block's component dissolves.
func (pt *Partition) update(run *syncRun, d *db.DB, rs *relState, name, bid string) {
	b := rs.blocks[bid]
	if b != nil && b.updated == pt.epoch {
		return
	}
	facts := d.BlockFacts(name, bid)
	if facts == nil {
		if b == nil {
			return
		}
		run.dissolve(b)
		pt.rekey(b, nil)
		delete(rs.blocks, bid)
		run.vanished++
		return
	}
	if b == nil {
		b = &blockState{id: bid, rel: name}
		rs.blocks[bid] = b
	}
	b.updated = pt.epoch
	run.dissolve(b)
	pt.rekey(b, rs.joinKeys(facts))
	run.relink = append(run.relink, b)
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
	c := &component{blocks: make([]string, len(members)), rels: make([]string, len(members)), j: pt.rels[b.rel].comp}
	for i, m := range members {
		c.blocks[i], c.rels[i] = m.id, m.rel
		m.comp = c
	}
	return c
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

// newDecomposition returns an empty decomposition of d over the
// partition's query components.
func (pt *Partition) newDecomposition(d *db.DB) *Decomposition {
	return &Decomposition{
		Query:      pt.q,
		Components: pt.components,
		d:          d,
		compKeys:   pt.compKeys,
		shards:     make([][]*component, len(pt.comps)),
		kept:       make([]keptCount, len(pt.comps)),
	}
}
