package db

import (
	"context"
	"fmt"
	"maps"
	"math/big"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/cqa-go/certainty/internal/govern"
)

// DB is an uncertain database: a finite set of facts. Facts are deduplicated,
// and every order a reader sees — facts in insertion order, blocks in
// first-insertion order — is deterministic. The zero value is not ready for
// use; call New.
//
// Storage is organized per relation (see relation.go): each relation keeps
// its blocks in a persistent trie from block ID to an immutable block, which
// holds its facts and the sequence number each was inserted at. Clone copies
// only the map of relations, and a write path-copies O(log n) trie nodes,
// the block it touches and that relation's bounded change log; every other
// relation and block stays shared. Nothing is kept in order on a write: the
// orders are derived from the sequence numbers on the first read after a
// mutation and memoized (order), while Parse and the append-only builders
// (Add into a fresh database, WithBlocks, Restrict, RepairDB) fill that memo
// as they go, so no reader of an append-only database sorts. Parse builds
// none of this: it keeps the interned columns, and the first call that
// reads the string side cuts it from them (columns, parse.go). Content
// digests are composed from the facts on demand and memoized per relation
// (index.go).
//
// Reads (including the lazily derived orders, digests and interned view)
// are safe for concurrent use; mutations (Add, Remove, RemoveBlock) are not
// and must not race with reads of the same DB. Clones taken before a
// mutation are unaffected by it and stay safe to read.
type DB struct {
	rels map[string]*relation // nil while cols is set: read through relations
	// cols is set on a database Parse made until a mutation: its string
	// side is then built from the columns on first read (relations,
	// orders), and the cheap reads (Relations, Signature, RelationVersion)
	// answer from the columns without building it.
	cols    *columns
	nfacts  int
	nblocks int
	next    uint64 // the sequence number of the next insert

	// owner is this database's generation: the structures tagged with it
	// are reachable from no other database, so a mutation changes them in
	// place. Clone moves the original and the copy to fresh generations,
	// which makes everything they share copy-on-write for both.
	owner atomic.Uint64

	// order memoizes the orders readers see: derived on first read after a
	// mutation, or kept by the append-only builders. Shared by clones
	// (immutable unless its owner matches the database's).
	order atomic.Pointer[order]

	// interned memoizes the dense-id columnar view (see interned.go).
	// Built by Parse or on first use, dropped on mutation, shared by
	// clones (immutable).
	interned atomic.Pointer[Interned]
}

// order is the database's facts in insertion order and its blocks in
// first-insertion order. A derived order is immutable (owner 0); one a
// builder keeps carries the builder's generation, and appends of that
// generation extend it in place.
type order struct {
	owner  uint64
	facts  []Fact
	blocks []*block
}

// owners draws database generations; 0 is never drawn, so it can mark a
// derived order no generation extends.
var owners atomic.Uint64

// New returns an empty uncertain database.
func New() *DB {
	d := &DB{rels: make(map[string]*relation)}
	d.owner.Store(owners.Add(1))
	return d
}

// FromFacts returns a database containing the given facts.
func FromFacts(facts ...Fact) (*DB, error) {
	d := New()
	for _, f := range facts {
		if err := d.Add(f); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// MustFromFacts is FromFacts panicking on error, for tests and literals.
func MustFromFacts(facts ...Fact) *DB {
	d, err := FromFacts(facts...)
	if err != nil {
		panic(err)
	}
	return d
}

// Add inserts a fact (idempotently). It rejects invalid facts and signature
// conflicts with previously inserted facts of the same relation.
func (d *DB) Add(f Fact) error {
	if err := f.Validate(); err != nil {
		return err
	}
	d.own()
	sig := [2]int{len(f.Args), f.KeyLen}
	if r, ok := d.rels[f.Rel]; ok && r.sig != sig {
		return fmt.Errorf("db: relation %s used with signatures [%d,%d] and [%d,%d]",
			f.Rel, r.sig[0], r.sig[1], sig[0], sig[1])
	}
	d.addValidated(f)
	return nil
}

// addValidated inserts a fact that is already known to be valid and
// signature-consistent with the database (facts coming from another DB that
// validated them on first insert). Skipping re-validation keeps derived
// databases (Restrict, WithoutBlock, RepairDB) off the per-fact error paths.
//
// The fact takes the next sequence number. A database that owns its
// memoized order (a fresh one, or one built by appends alone) appends the
// fact, and a new block, to it; any other drops it. d holds its string
// side: Add readies it before its signature check reads it, and the other
// callers insert into databases New made.
func (d *DB) addValidated(f Fact) {
	owner := d.owner.Load()
	bid := f.BlockID()
	h := blockHash(bid)
	r := d.rels[f.Rel]
	var b *block
	if r == nil {
		r = newRelation([2]int{len(f.Args), f.KeyLen}, owner)
		d.rels[f.Rel] = r
	} else {
		if b = r.root.get(h, bid); b != nil && b.has(f) {
			return
		}
		if m := r.mutable(owner); m != r {
			r = m
			d.rels[f.Rel] = m
		}
	}
	o := d.order.Load()
	if d.nfacts == 0 && (o == nil || o.owner != owner) {
		o = &order{owner: owner} // an empty database knows its order
		d.order.Store(o)
	}
	keep := o != nil && o.owner == owner
	seq := d.next
	d.next++
	switch {
	case b == nil:
		b = newBlock(bid, h, seq, owner, f)
		r.root = r.root.put(b, 0, owner)
		r.blocks++
		d.nblocks++
		if keep {
			o.blocks = append(o.blocks, b)
		}
	case b.owner == owner:
		b.add(f, seq)
	default:
		b = b.mutable(owner)
		b.add(f, seq)
		r.root = r.root.put(b, 0, owner)
		keep = false // the order holds the block b replaced
	}
	r.facts++
	d.nfacts++
	r.touch(bid)
	if keep {
		o.facts = append(o.facts, f)
	} else {
		d.order.Store(nil)
	}
	d.interned.Store(nil)
}

// relations returns the database's relations, building a parsed
// database's string side on the first call. Safe for concurrent readers.
func (d *DB) relations() map[string]*relation {
	if c := d.cols; c != nil {
		return c.built(d).rels
	}
	return d.rels
}

// own readies the database for a mutation: a parsed database takes its
// string side, and the order built with it, as its own.
func (d *DB) own() {
	if c := d.cols; c != nil {
		side := c.built(d)
		d.rels, d.cols = side.rels, nil
		d.order.CompareAndSwap(nil, side.order)
	}
}

// orders returns the memoized orders: a parsed database's are built with
// its string side, and any other database derives them from the sequence
// numbers when it holds none, the blocks sorted by the number each entered
// the block order at, the facts by the number each was inserted at. Safe
// for concurrent readers, like Interned.
func (d *DB) orders() *order {
	if o := d.order.Load(); o != nil {
		return o
	}
	if c := d.cols; c != nil {
		d.order.CompareAndSwap(nil, c.built(d).order)
		return d.order.Load()
	}
	o := &order{blocks: make([]*block, 0, d.nblocks)}
	for _, r := range d.rels {
		r.root.each(func(b *block) { o.blocks = append(o.blocks, b) })
	}
	sortBySeq(o.blocks, func(b *block) uint64 { return b.seq })
	type inserted struct {
		seq uint64
		f   *Fact
	}
	all := make([]inserted, 0, d.nfacts)
	for _, b := range o.blocks {
		for i := range b.facts {
			all = append(all, inserted{b.seqs[i], &b.facts[i]})
		}
	}
	sortBySeq(all, func(in inserted) uint64 { return in.seq })
	if len(all) > 0 {
		o.facts = make([]Fact, len(all))
		for i, in := range all {
			o.facts[i] = *in.f
		}
	}
	if !d.order.CompareAndSwap(nil, o) {
		return d.order.Load()
	}
	return o
}

// sortBySeq sorts xs by their distinct sequence numbers: a radix sort, a
// byte of the numbers per pass and no pass above the largest.
func sortBySeq[T any](xs []T, seq func(T) uint64) {
	var top uint64
	for _, x := range xs {
		top = max(top, seq(x))
	}
	src, dst := xs, make([]T, len(xs))
	for shift := 0; shift < 64 && top>>shift > 0; shift += 8 {
		var at [257]int
		for _, x := range src {
			at[seq(x)>>shift&0xff+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		for _, x := range src {
			k := seq(x) >> shift & 0xff
			dst[at[k]] = x
			at[k]++
		}
		src, dst = dst, src
	}
	copy(xs, src)
}

// Len returns the number of facts.
func (d *DB) Len() int { return d.nfacts }

// Facts returns all facts in insertion order. The slice must not be
// modified.
func (d *DB) Facts() []Fact { return d.orders().facts }

// Has reports whether the fact is present. A fact whose [arity, key
// length] differs from its relation's signature is absent, although
// Fact.ID, which leaves the key length out, may name a stored fact.
func (d *DB) Has(f Fact) bool {
	r := d.relationOf(f)
	if r == nil {
		return false
	}
	bid := f.BlockID()
	b := r.root.get(blockHash(bid), bid)
	return b != nil && b.has(f)
}

// relationOf returns f's relation when f has its signature, else nil.
func (d *DB) relationOf(f Fact) *relation {
	r, ok := d.relations()[f.Rel]
	if !ok || r.sig != [2]int{len(f.Args), f.KeyLen} {
		return nil
	}
	return r
}

// block returns block bid of relation rel, or nil.
func (d *DB) block(rel, bid string) *block {
	r, ok := d.relations()[rel]
	if !ok {
		return nil
	}
	return r.root.get(blockHash(bid), bid)
}

// Relations returns the relation names present, sorted.
func (d *DB) Relations() []string {
	var out []string
	if c := d.cols; c != nil {
		out = append(make([]string, 0, len(c.names)), c.names...)
	} else {
		out = make([]string, 0, len(d.rels))
		for r := range d.rels {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

// Signature returns the [arity, keyLen] signature of a relation present in
// the database.
func (d *DB) Signature(rel string) (arity, keyLen int, ok bool) {
	if c := d.cols; c != nil {
		ri, ok := c.ords[rel]
		if !ok {
			return 0, 0, false
		}
		return c.irs[ri].Arity, c.irs[ri].KeyLen, true
	}
	r, ok := d.rels[rel]
	if !ok {
		return 0, 0, false
	}
	return r.sig[0], r.sig[1], true
}

// FactsOf returns the facts of the given relation in insertion order.
func (d *DB) FactsOf(rel string) []Fact {
	r, ok := d.relations()[rel]
	if !ok {
		return make([]Fact, 0)
	}
	out := make([]Fact, 0, r.facts)
	for _, f := range d.Facts() {
		if f.Rel == rel {
			out = append(out, f)
		}
	}
	return out
}

// Block returns the block of the given fact: all facts key-equal to it
// (including f itself if present).
func (d *DB) Block(f Fact) []Fact {
	var facts []Fact
	if b := d.block(f.Rel, f.BlockID()); b != nil {
		facts = b.facts
	}
	return append(make([]Fact, 0, len(facts)), facts...)
}

// Blocks returns all blocks in first-insertion order. Each block lists its
// facts in insertion order.
func (d *DB) Blocks() [][]Fact {
	blocks := d.orders().blocks
	out := make([][]Fact, len(blocks))
	for i, b := range blocks {
		out[i] = append(make([]Fact, 0, len(b.facts)), b.facts...)
	}
	return out
}

// NumBlocks returns the number of blocks.
func (d *DB) NumBlocks() int { return d.nblocks }

// eachBlock calls yield with every block, in no particular order.
func (d *DB) eachBlock(yield func(*block)) {
	for _, r := range d.relations() {
		r.root.each(yield)
	}
}

// IsConsistent reports whether every block is a singleton.
func (d *DB) IsConsistent() bool {
	consistent := true
	d.eachBlock(func(b *block) { consistent = consistent && len(b.facts) == 1 })
	return consistent
}

// ActiveDomain returns the sorted set of constants occurring in the
// database.
func (d *DB) ActiveDomain() []string {
	seen := make(map[string]struct{})
	d.eachBlock(func(b *block) {
		for _, f := range b.facts {
			for _, a := range f.Args {
				seen[a] = struct{}{}
			}
		}
	})
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Clone returns a copy of the database sharing everything but the map of
// relations: O(relations), whatever the number of facts. Both databases
// move to fresh generations, so every relation, trie node and block they
// share becomes copy-on-write for both: a later write of either copies the
// touched relation's struct and change log, the O(log n) trie nodes above
// the block it touches and that block, and the other database never
// observes it. The memoized order and interned view are shared as the
// immutable snapshots they are. A parsed database builds its string side
// first, under its generation before the clone, so both share it.
func (d *DB) Clone() *DB {
	rels := d.relations()
	if d.cols != nil {
		d.orders() // publish the order built with the string side
	}
	c := &DB{rels: maps.Clone(rels), nfacts: d.nfacts, nblocks: d.nblocks, next: d.next}
	c.owner.Store(owners.Add(1))
	d.owner.Store(owners.Add(1))
	c.order.Store(d.order.Load())
	c.interned.Store(d.interned.Load())
	return c
}

// Restrict returns the sub-database containing only facts satisfying keep.
// Facts were validated on first insertion, so the copy skips re-validation.
func (d *DB) Restrict(keep func(Fact) bool) *DB {
	c := New()
	for _, f := range d.Facts() {
		if keep(f) {
			c.addValidated(f)
		}
	}
	return c
}

// BlockFacts returns the facts of block bid (a Fact.BlockID) of relation
// rel in insertion order, or nil when the block is absent. The slice is the
// database's own: callers must not modify it, and must not hold it across a
// mutation of d.
func (d *DB) BlockFacts(rel, bid string) []Fact {
	if b := d.block(rel, bid); b != nil {
		return b.facts
	}
	return nil
}

// WithBlocks returns the sub-database made of whole blocks of d: block
// bids[i] of relation rels[i], inserted block by block in the order given.
// The facts were validated on insertion into d, so the copy skips
// re-validation; absent blocks contribute nothing. The shard layer builds
// each sub-instance of a decomposition this way, only when it is solved.
func (d *DB) WithBlocks(rels, bids []string) *DB {
	c := New()
	for i, bid := range bids {
		for _, f := range d.BlockFacts(rels[i], bid) {
			c.addValidated(f)
		}
	}
	return c
}

// WithoutBlock returns the database with the entire block of f removed
// (Lemma 1's purification step removes whole blocks).
func (d *DB) WithoutBlock(f Fact) *DB {
	bid := f.BlockID()
	return d.Restrict(func(g Fact) bool { return g.BlockID() != bid })
}

// NumRepairs returns the number of repairs: the product of the block sizes
// (1 for the empty database, whose only repair is empty).
func (d *DB) NumRepairs() *big.Int {
	n := big.NewInt(1)
	size := new(big.Int)
	d.eachBlock(func(b *block) { n.Mul(n, size.SetInt64(int64(len(b.facts)))) })
	return n
}

// EachRepair enumerates all repairs, invoking yield with each repair as a
// fact slice (one fact per block, in block order). Enumeration stops early
// if yield returns false. The slice passed to yield is reused across calls;
// copy it to retain. Returns false iff some yield returned false. It is
// EachRepairCtx run to completion.
func (d *DB) EachRepair(yield func(repair []Fact) bool) bool {
	// A background context carries no governor limit, so the enumeration
	// is never cut off and the error is always nil.
	done, _ := d.EachRepairCtx(context.Background(), yield)
	return done
}

// EachRepairCtx is EachRepair with cooperative cancellation: one governor
// step is charged per repair yielded, and enumeration aborts with the
// governor's error on cancellation, deadline, or budget exhaustion. The
// bool result is false iff some yield returned false (as in EachRepair);
// it is unspecified when the error is non-nil.
func (d *DB) EachRepairCtx(ctx context.Context, yield func(repair []Fact) bool) (bool, error) {
	g := govern.From(ctx)
	blocks := d.Blocks()
	repair := make([]Fact, len(blocks))
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(blocks) {
			if err := g.Step(); err != nil {
				return false, err
			}
			return yield(repair), nil
		}
		for _, f := range blocks[i] {
			repair[i] = f
			cont, err := rec(i + 1)
			if err != nil || !cont {
				return false, err
			}
		}
		return true, nil
	}
	return rec(0)
}

// RepairDB materializes a repair (as produced by EachRepair) into a
// consistent database. The facts must come from a valid database; they are
// not re-validated.
func RepairDB(repair []Fact) *DB {
	d := New()
	for _, f := range repair {
		d.addValidated(f)
	}
	return d
}

// Union returns a new database containing the facts of both inputs.
func Union(a, b *DB) (*DB, error) {
	c := New()
	for _, f := range a.Facts() {
		if err := c.Add(f); err != nil {
			return nil, err
		}
	}
	for _, f := range b.Facts() {
		if err := c.Add(f); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// String renders the database with one fact per line, grouped by block in
// insertion order (blocks separated implicitly by key equality).
func (d *DB) String() string {
	var b strings.Builder
	for _, blk := range d.orders().blocks {
		for _, f := range blk.facts {
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Equal reports whether two databases contain the same set of facts.
func (d *DB) Equal(other *DB) bool {
	if d.Len() != other.Len() {
		return false
	}
	equal := true
	d.eachBlock(func(b *block) {
		for _, f := range b.facts {
			equal = equal && other.Has(f)
		}
	})
	return equal
}

// RepairAt returns the repair with the given index in the mixed-radix
// enumeration order used by EachRepair (block insertion order, fact
// insertion order within a block). The index must lie in [0, NumRepairs).
// Useful for random access into astronomically large repair spaces.
func (d *DB) RepairAt(index *big.Int) ([]Fact, error) {
	if index.Sign() < 0 || index.Cmp(d.NumRepairs()) >= 0 {
		return nil, fmt.Errorf("db: repair index %v out of range [0, %v)", index, d.NumRepairs())
	}
	blocks := d.Blocks()
	out := make([]Fact, len(blocks))
	rem := new(big.Int).Set(index)
	radix := new(big.Int)
	digit := new(big.Int)
	// EachRepair varies the LAST block fastest; decode accordingly.
	for i := len(blocks) - 1; i >= 0; i-- {
		radix.SetInt64(int64(len(blocks[i])))
		rem.QuoRem(rem, radix, digit)
		out[i] = blocks[i][digit.Int64()]
	}
	return out, nil
}

// Remove deletes a fact, reporting whether it was present (as Has decides).
// Only the fact's relation is touched: its trie is path-copied down to the
// fact's block, which is copied without the fact, or dropped with its last
// fact, unless the database owns them. A block that empties leaves the
// block order; if it is filled again, it re-enters at the end.
func (d *DB) Remove(f Fact) bool {
	d.own()
	r := d.relationOf(f)
	if r == nil {
		return false
	}
	bid := f.BlockID()
	h := blockHash(bid)
	b := r.root.get(h, bid)
	if b == nil {
		return false
	}
	i := b.find(f)
	if i < 0 {
		return false
	}
	owner := d.owner.Load()
	if m := r.mutable(owner); m != r {
		r = m
		d.rels[f.Rel] = m
	}
	switch {
	case len(b.facts) == 1:
		r.root = r.root.del(h, bid, 0, owner)
		r.blocks--
		d.nblocks--
	case b.owner == owner:
		b.remove(i)
	default:
		b = b.mutable(owner)
		b.remove(i)
		r.root = r.root.put(b, 0, owner)
	}
	r.facts--
	d.nfacts--
	r.touch(bid)
	if r.facts == 0 {
		delete(d.rels, f.Rel)
	}
	d.order.Store(nil)
	d.interned.Store(nil)
	return true
}

// assignFrom moves n's content into d field-wise (the atomic fields must
// not be copied), dropping d's interned view. d takes n's generation: n
// must not be used afterwards.
func (d *DB) assignFrom(n *DB) {
	n.own()
	d.rels, d.cols, d.nfacts, d.nblocks, d.next = n.rels, nil, n.nfacts, n.nblocks, n.next
	d.owner.Store(n.owner.Load())
	d.order.Store(n.order.Load())
	d.interned.Store(nil)
}

// RemoveBlock deletes the entire block of f, reporting how many facts were
// removed; a fact without its relation's signature names no block. Like
// Remove, only the fact's relation is touched.
func (d *DB) RemoveBlock(f Fact) int {
	d.own()
	r := d.relationOf(f)
	if r == nil {
		return 0
	}
	bid := f.BlockID()
	b := r.root.get(blockHash(bid), bid)
	if b == nil {
		return 0
	}
	// Copy the block's facts first: removing may change the block in place.
	facts := slices.Clone(b.facts)
	for _, g := range facts {
		d.Remove(g)
	}
	return len(facts)
}
