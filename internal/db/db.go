package db

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/cqa-go/certainty/internal/govern"
)

// blockRef addresses one block globally: the relation holding it plus the
// block ID within it. The database keeps blocks in global first-insertion
// order through these references while the block contents live in the
// per-relation structures.
type blockRef struct {
	rel string
	bid string
}

// DB is an uncertain database: a finite set of facts. Facts are deduplicated
// and kept in insertion order for deterministic iteration. The zero value is
// not ready for use; call New.
//
// Storage is organized per relation (see relation.go): each relation owns
// its facts, blocks and version, and relations are the copy-on-write unit
// shared between a database and its clones. A mutation therefore touches
// only the relation it changes; every other relation survives untouched.
// Content digests are composed from the facts on demand (index.go).
//
// Reads (including the lazily built interned view) are safe for concurrent
// use; mutations (Add, Remove, RemoveBlock) are not and must not race with
// reads of the same DB. Clones taken before a mutation are unaffected by it
// and stay safe to read.
type DB struct {
	facts      []Fact     // global insertion order
	blockOrder []blockRef // blocks in global first-insertion order
	rels       map[string]*relation

	// interned memoizes the dense-id columnar view (see interned.go).
	// Built by Parse or on first use, dropped on mutation, shared by
	// clones (immutable).
	interned atomic.Pointer[Interned]
}

// New returns an empty uncertain database.
func New() *DB {
	return &DB{rels: make(map[string]*relation)}
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
func (d *DB) addValidated(f Fact) {
	r, ok := d.rels[f.Rel]
	if !ok {
		r = newRelation([2]int{len(f.Args), f.KeyLen})
		d.rels[f.Rel] = r
	}
	if _, dup := r.ids[f.ID()]; dup {
		return
	}
	m := r.mutable()
	if m != r {
		d.rels[f.Rel] = m
	}
	bid := f.BlockID()
	if _, known := m.blocks[bid]; !known {
		d.blockOrder = append(d.blockOrder, blockRef{rel: f.Rel, bid: bid})
	}
	m.insert(f)
	d.facts = append(d.facts, f)
	d.interned.Store(nil)
}

// Len returns the number of facts.
func (d *DB) Len() int { return len(d.facts) }

// Facts returns all facts in insertion order. The slice must not be
// modified.
func (d *DB) Facts() []Fact { return d.facts }

// Has reports whether the fact is present. A fact whose [arity, key
// length] differs from its relation's signature is absent, although
// Fact.ID, which leaves the key length out, may name a stored fact.
func (d *DB) Has(f Fact) bool {
	r := d.relationOf(f)
	if r == nil {
		return false
	}
	_, ok := r.ids[f.ID()]
	return ok
}

// relationOf returns f's relation when f has its signature, else nil.
func (d *DB) relationOf(f Fact) *relation {
	r, ok := d.rels[f.Rel]
	if !ok || r.sig != [2]int{len(f.Args), f.KeyLen} {
		return nil
	}
	return r
}

// Relations returns the relation names present, sorted.
func (d *DB) Relations() []string {
	out := make([]string, 0, len(d.rels))
	for r := range d.rels {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Signature returns the [arity, keyLen] signature of a relation present in
// the database.
func (d *DB) Signature(rel string) (arity, keyLen int, ok bool) {
	r, ok := d.rels[rel]
	if !ok {
		return 0, 0, false
	}
	return r.sig[0], r.sig[1], true
}

// FactsOf returns the facts of the given relation in insertion order.
func (d *DB) FactsOf(rel string) []Fact {
	r, ok := d.rels[rel]
	if !ok {
		return make([]Fact, 0)
	}
	out := make([]Fact, len(r.facts))
	copy(out, r.facts)
	return out
}

// Block returns the block of the given fact: all facts key-equal to it
// (including f itself if present).
func (d *DB) Block(f Fact) []Fact {
	r, ok := d.rels[f.Rel]
	if !ok {
		return make([]Fact, 0)
	}
	blk := r.blocks[f.BlockID()]
	out := make([]Fact, len(blk))
	copy(out, blk)
	return out
}

// Blocks returns all blocks in first-insertion order. Each block lists its
// facts in insertion order.
func (d *DB) Blocks() [][]Fact {
	out := make([][]Fact, 0, len(d.blockOrder))
	for _, ref := range d.blockOrder {
		blk := d.rels[ref.rel].blocks[ref.bid]
		cp := make([]Fact, len(blk))
		copy(cp, blk)
		out = append(out, cp)
	}
	return out
}

// NumBlocks returns the number of blocks.
func (d *DB) NumBlocks() int { return len(d.blockOrder) }

// IsConsistent reports whether every block is a singleton.
func (d *DB) IsConsistent() bool {
	for _, r := range d.rels {
		for _, blk := range r.blocks {
			if len(blk) > 1 {
				return false
			}
		}
	}
	return true
}

// ActiveDomain returns the sorted set of constants occurring in the
// database.
func (d *DB) ActiveDomain() []string {
	seen := make(map[string]struct{})
	for _, f := range d.facts {
		for _, a := range f.Args {
			seen[a] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Clone returns a copy of the database sharing fact values (facts are
// immutable by convention). The copy is structural and flat: the global
// fact and block-order slices are duplicated, while the per-relation
// structures are shared by reference and marked copy-on-write. A later
// mutation of either database privatizes only the relation it touches, so
// a clone costs O(facts) for the flat slices but no re-indexing, and
// mutating one fact after a clone costs O(touched relation), not
// O(database).
func (d *DB) Clone() *DB {
	c := &DB{
		facts:      append([]Fact(nil), d.facts...),
		blockOrder: append([]blockRef(nil), d.blockOrder...),
		rels:       make(map[string]*relation, len(d.rels)),
	}
	for name, r := range d.rels {
		r.shared.Store(true)
		c.rels[name] = r
	}
	c.interned.Store(d.interned.Load()) // immutable snapshot, safe to share
	return c
}

// Restrict returns the sub-database containing only facts satisfying keep.
// Facts were validated on first insertion, so the copy skips re-validation.
func (d *DB) Restrict(keep func(Fact) bool) *DB {
	c := New()
	for _, f := range d.facts {
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
	r, ok := d.rels[rel]
	if !ok {
		return nil
	}
	return r.blocks[bid]
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
	for _, r := range d.rels {
		for _, blk := range r.blocks {
			n.Mul(n, big.NewInt(int64(len(blk))))
		}
	}
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
	for _, ref := range d.blockOrder {
		for _, f := range d.rels[ref.rel].blocks[ref.bid] {
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
	for _, f := range d.facts {
		if !other.Has(f) {
			return false
		}
	}
	return true
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
// Only the fact's relation is touched: its structures are privatized if
// shared and updated in place, while every other relation is untouched.
// The global fact and block-order slices are compacted with one flat pass
// each.
func (d *DB) Remove(f Fact) bool {
	if !d.Has(f) {
		return false
	}
	r := d.rels[f.Rel]
	m := r.mutable()
	if m != r {
		d.rels[f.Rel] = m
	}
	blockEmptied := m.remove(f)
	d.dropGlobalFact(f)
	if blockEmptied {
		d.dropBlockRef(blockRef{rel: f.Rel, bid: f.BlockID()})
	}
	if len(m.facts) == 0 {
		delete(d.rels, f.Rel)
	}
	d.interned.Store(nil)
	return true
}

// dropGlobalFact removes the first (only) occurrence of f from the global
// insertion-order slice with a flat copy.
func (d *DB) dropGlobalFact(f Fact) {
	for i, g := range d.facts {
		if g.Equal(f) {
			kept := make([]Fact, 0, len(d.facts)-1)
			kept = append(kept, d.facts[:i]...)
			kept = append(kept, d.facts[i+1:]...)
			d.facts = kept
			return
		}
	}
}

// dropBlockRef removes one block reference from the global block order.
func (d *DB) dropBlockRef(ref blockRef) {
	for i, b := range d.blockOrder {
		if b == ref {
			kept := make([]blockRef, 0, len(d.blockOrder)-1)
			kept = append(kept, d.blockOrder[:i]...)
			kept = append(kept, d.blockOrder[i+1:]...)
			d.blockOrder = kept
			return
		}
	}
}

// assignFrom moves n's content into d field-wise (the atomic view pointer
// must not be copied), dropping d's interned view.
func (d *DB) assignFrom(n *DB) {
	d.facts = n.facts
	d.blockOrder = n.blockOrder
	d.rels = n.rels
	d.interned.Store(nil)
}

// RemoveBlock deletes the entire block of f, reporting how many facts were
// removed; a fact without its relation's signature names no block. Like
// Remove, only the fact's relation is touched.
func (d *DB) RemoveBlock(f Fact) int {
	r := d.relationOf(f)
	if r == nil {
		return 0
	}
	blk := r.blocks[f.BlockID()]
	if len(blk) == 0 {
		return 0
	}
	// Copy the block's facts first: removing mutates the slice we iterate.
	facts := make([]Fact, len(blk))
	copy(facts, blk)
	for _, g := range facts {
		d.Remove(g)
	}
	return len(facts)
}
