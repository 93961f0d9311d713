package db

import (
	"slices"

	"github.com/cqa-go/certainty/internal/intern"
	"github.com/cqa-go/certainty/internal/obs"
)

var (
	internBuilds = obs.Default.Counter("db_intern_builds_total")
	stringBuilds = obs.Default.Counter("db_string_builds_total")
)

func init() {
	obs.Default.Help("db_intern_builds_total", "Interned columnar views built (first use after mutation).")
	obs.Default.Help("db_string_builds_total", "String sides of parsed databases built from their columns (first read).")
}

// Interned is the dense-id columnar view of a database: every relation name
// and constant is interned to a uint32, and each relation's facts are stored
// as per-column []uint32 with block-offset arrays. It is an immutable
// snapshot. Parse builds it in the same pass as the database; a database
// built or changed by Add and Remove builds it on first use (DB.Interned)
// and drops it on mutation. Evaluation hot paths in engine/fo/solver run
// entirely over it, touching strings only at the boundary (query compile,
// result materialization).
//
// Id assignment is deterministic: relation names and arguments are interned
// by one pass over the database's fact insertion order (DB.Facts), each
// fact's relation name before its arguments. Snapshots preserve that order,
// so a save→reload round-trip reproduces the exact same ids (locked by
// TestInternedSnapshotStableIDs). Digests are computed from strings and
// never consult this view, so interning is digest-compatible by
// construction.
type Interned struct {
	// Syms maps symbols ↔ dense ids. Read-only after build.
	Syms *intern.Table

	rels map[string]*IRel

	// domain lists the distinct ids occurring as fact arguments, in first
	// occurrence order; isDomainSym is the membership vector indexed by id
	// (relation names intern too, so the active domain is a subset of the
	// table).
	domain      []uint32
	isDomainSym []bool
}

// IRel is one relation's columnar storage. Fact index i is the relation's
// insertion position (identical to FactsOf(rel)[i]); all index structures
// yield fact indices in ascending order, which IS insertion order — the
// invariant that makes interned enumeration byte-compatible with the
// string reference implementations the tests keep.
type IRel struct {
	// Arity and KeyLen mirror the relation signature.
	Arity  int
	KeyLen int
	// Cols holds the facts column-wise: Cols[pos][i] is the id of argument
	// pos of fact i. len(Cols) == Arity, len(Cols[pos]) == NumFacts().
	Cols [][]uint32
	// ByBlock lists fact indices grouped by block — blocks in
	// first-insertion order, facts in insertion order within each — and
	// BlockOff marks the group boundaries: block b spans
	// ByBlock[BlockOff[b]:BlockOff[b+1]].
	ByBlock  []uint32
	BlockOff []uint32
	// BlockOfFact maps each fact index to its block ordinal.
	BlockOfFact []uint32

	// The fact and block hash indexes chain the entries sharing a hash
	// through factNext and blockNext, newest first, ending in noIndex.
	// Probes verify against the columns and blockKeys, so a collision costs
	// a comparison, never a wrong answer.
	factIdx   map[uint64]uint32 // hash(all ids) → newest fact index
	factNext  []uint32
	blockIdx  map[uint64]uint32 // hash(key ids) → newest block ordinal
	blockNext []uint32
	blockKeys []uint32  // block b's key ids at [b*KeyLen, (b+1)*KeyLen)
	postings  []posting // per position
}

// posting indexes one column: the facts carrying the id whose run is
// k = at[id] are facts[off[k]:off[k+1]], in ascending order.
type posting struct {
	at    map[uint32]uint32
	off   []uint32
	facts []uint32
}

// noIndex ends a hash chain.
const noIndex = ^uint32(0)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashIDs is FNV-1a folding each id in one step. Probes verify against the
// columns, so occasional collisions cost a comparison, never a wrong answer.
func hashIDs(ids []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		h ^= uint64(id)
		h *= fnvPrime64
	}
	return h
}

// NumFacts returns the number of facts of the relation.
func (r *IRel) NumFacts() int { return len(r.BlockOfFact) }

// NumBlocks returns the number of blocks of the relation.
func (r *IRel) NumBlocks() int { return len(r.blockNext) }

// BlockSpan returns the fact indices of block b (insertion order) as a
// shared sub-slice of ByBlock. Zero-alloc.
func (r *IRel) BlockSpan(b int) []uint32 {
	return r.ByBlock[r.BlockOff[b]:r.BlockOff[b+1]]
}

// keyMatches reports whether the fact at index fi carries exactly the given
// key ids.
func (r *IRel) keyMatches(fi uint32, key []uint32) bool {
	for p, id := range key {
		if r.Cols[p][fi] != id {
			return false
		}
	}
	return true
}

// chain returns the head of the hash chain for h in idx.
func chain(idx map[uint64]uint32, h uint64) uint32 {
	if head, ok := idx[h]; ok {
		return head
	}
	return noIndex
}

// findBlock returns the ordinal of the block with the given key ids.
func (r *IRel) findBlock(key []uint32) (uint32, bool) {
	k := uint32(r.KeyLen)
	for b := chain(r.blockIdx, hashIDs(key)); b != noIndex; b = r.blockNext[b] {
		if slices.Equal(r.blockKeys[b*k:(b+1)*k], key) {
			return b, true
		}
	}
	return 0, false
}

// BlockOf returns the fact indices of the block with the given key ids
// (len(key) must be KeyLen), or (nil, false) when no such block exists.
// Zero-alloc: the result is a shared sub-slice of ByBlock.
func (r *IRel) BlockOf(key []uint32) ([]uint32, bool) {
	if b, ok := r.findBlock(key); ok {
		return r.BlockSpan(int(b)), true
	}
	return nil, false
}

// FactIndex returns the index of the fact with exactly the given argument
// ids (len(args) must be Arity), or (0, false) when absent. Zero-alloc.
func (r *IRel) FactIndex(args []uint32) (uint32, bool) {
	for fi := chain(r.factIdx, hashIDs(args)); fi != noIndex; fi = r.factNext[fi] {
		if r.keyMatches(fi, args) {
			return fi, true
		}
	}
	return 0, false
}

// HasTuple reports whether the relation contains a fact with exactly the
// given argument ids. The key length is not part of the identity, matching
// DB.Has (Fact.ID encodes relation and arguments only). Zero-alloc.
func (r *IRel) HasTuple(args []uint32) bool {
	_, ok := r.FactIndex(args)
	return ok
}

// Posting returns the ascending fact indices carrying id at argument
// position pos, as a shared slice, or nil when none does. Zero-alloc.
func (r *IRel) Posting(pos int, id uint32) []uint32 {
	pl := &r.postings[pos]
	k, ok := pl.at[id]
	if !ok {
		return nil
	}
	return pl.facts[pl.off[k]:pl.off[k+1]:pl.off[k+1]]
}

// Arg returns the id of argument pos of fact fi.
func (r *IRel) Arg(fi uint32, pos int) uint32 { return r.Cols[pos][fi] }

// NumFacts returns the number of facts of the database.
func (in *Interned) NumFacts() int {
	n := 0
	for _, r := range in.rels {
		n += r.NumFacts()
	}
	return n
}

// Rel returns the columnar storage of the named relation, or nil when the
// relation is absent.
func (in *Interned) Rel(name string) *IRel { return in.rels[name] }

// Domain returns the distinct ids occurring as fact arguments, in first
// occurrence order. Shared; must not be modified.
func (in *Interned) Domain() []uint32 { return in.domain }

// IsDomainSym reports whether id occurs as a fact argument. Ids outside the
// table (including intern.None and formula-constant pseudo-ids) are safely
// outside the domain.
func (in *Interned) IsDomainSym(id uint32) bool {
	return int64(id) < int64(len(in.isDomainSym)) && in.isDomainSym[id]
}

// Stats reports the symbol-table census and hit/miss telemetry of this view.
func (in *Interned) Stats() intern.Stats { return in.Syms.Stats() }

// Interned returns the dense-id columnar view of the database. A parsed
// database has it from Parse; otherwise it is built on first use. The view
// is an immutable snapshot: mutations drop the pointer and the next call
// rebuilds. Clones share the view (it is immutable), so cloning builds
// nothing. Safe for concurrent readers; like all DB reads it must not race
// with mutations.
func (d *DB) Interned() *Interned {
	if in := d.interned.Load(); in != nil {
		return in
	}
	in := d.buildInterned()
	if !d.interned.CompareAndSwap(nil, in) {
		return d.interned.Load()
	}
	return in
}

// InternedIfBuilt returns the columnar view the database holds — from
// Parse, an earlier Interned call, or the database it was cloned from —
// without building one, or nil when it holds none.
func (d *DB) InternedIfBuilt() *Interned { return d.interned.Load() }

// buildInterned constructs the columnar view of a database built by Add.
// The first pass interns every fact in the database's fact order, which
// fixes the ids and the active domain; a relation's facts keep their
// relative order in it, so the pass also collects each relation's rows. The
// second pass numbers each relation's blocks in the block order, which
// after a removal can differ from the order its facts open them, and the
// rows are added last.
func (d *DB) buildInterned() *Interned {
	internBuilds.Inc()
	o, rels := d.orders(), d.relations()
	in := newInterned(len(rels))
	rows := make(map[string][]uint32, len(rels))
	for name, r := range rels {
		rows[name] = make([]uint32, 0, r.facts*r.sig[0])
		in.rels[name] = newIRel(r.sig, r.facts, r.blocks)
	}
	for _, f := range o.facts {
		rows[f.Rel] = in.intern(rows[f.Rel], f.Rel, f.Args)
	}
	var key []uint32
	for _, b := range o.blocks {
		f := b.facts[0]
		key = key[:0]
		for _, a := range f.KeyArgs() {
			id, _ := in.Syms.Lookup(a)
			key = append(key, id)
		}
		in.rels[f.Rel].block(key)
	}
	for name, row := range rows {
		ir := in.rels[name]
		for i := 0; i < len(row); i += ir.Arity {
			ir.add(row[i : i+ir.Arity])
		}
	}
	in.finish()
	return in
}

// The ingest routine below builds a view fact by fact: Parse feeds it each
// scanned atom, buildInterned each fact of a database built by Add. Both
// intern a fact's relation name and then its arguments with intern, add
// the argument ids to the relation's columns with IRel.add, and lay every
// relation out with finish.

func newInterned(rels int) *Interned {
	return &Interned{Syms: intern.NewTable(), rels: make(map[string]*IRel, rels)}
}

// intern interns a fact's relation name and then its arguments, recording
// first occurrences in the active domain, and appends the argument ids to
// row.
func (in *Interned) intern(row []uint32, rel string, args []string) []uint32 {
	in.Syms.Intern(rel)
	for _, a := range args {
		id := in.Syms.Intern(a)
		for int(id) >= len(in.isDomainSym) {
			in.isDomainSym = append(in.isDomainSym, false)
		}
		if !in.isDomainSym[id] {
			in.isDomainSym[id] = true
			in.domain = append(in.domain, id)
		}
		row = append(row, id)
	}
	return row
}

// finish lays out every relation and sizes the domain vector to the table.
func (in *Interned) finish() {
	for len(in.isDomainSym) < in.Syms.Len() {
		in.isDomainSym = append(in.isDomainSym, false)
	}
	scratch := make([]uint32, in.Syms.Len())
	for _, r := range in.rels {
		if n := r.NumBlocks(); n > len(scratch) {
			scratch = make([]uint32, n)
		}
		r.layout(scratch)
	}
}

// newIRel returns an empty relation with the signature sig and room for
// the given numbers of facts and blocks.
func newIRel(sig [2]int, facts, blocks int) *IRel {
	r := &IRel{
		Arity:       sig[0],
		KeyLen:      sig[1],
		Cols:        make([][]uint32, sig[0]),
		BlockOfFact: make([]uint32, 0, facts),
		factIdx:     make(map[uint64]uint32, facts),
		factNext:    make([]uint32, 0, facts),
		blockIdx:    make(map[uint64]uint32, blocks),
		blockNext:   make([]uint32, 0, blocks),
		blockKeys:   make([]uint32, 0, blocks*sig[1]),
	}
	for p := range r.Cols {
		r.Cols[p] = make([]uint32, 0, facts)
	}
	return r
}

// block returns the ordinal of the block with the given key ids, numbering
// a new block next when there is none; fresh reports a new block.
func (r *IRel) block(key []uint32) (b uint32, fresh bool) {
	if b, ok := r.findBlock(key); ok {
		return b, false
	}
	h := hashIDs(key)
	b = uint32(len(r.blockNext))
	r.blockNext = append(r.blockNext, chain(r.blockIdx, h))
	r.blockIdx[h] = b
	r.blockKeys = append(r.blockKeys, key...)
	return b, true
}

// add appends the fact with argument ids args to the columns, unless the
// relation holds it already, and groups it into the block of its key. It
// reports whether the fact is new and whether it opened a new block.
func (r *IRel) add(args []uint32) (fresh, newBlock bool) {
	if _, ok := r.FactIndex(args); ok {
		return false, false
	}
	h := hashIDs(args)
	r.factNext = append(r.factNext, chain(r.factIdx, h))
	r.factIdx[h] = uint32(len(r.BlockOfFact))
	for p, id := range args {
		r.Cols[p] = append(r.Cols[p], id)
	}
	b, newBlock := r.block(args[:r.KeyLen])
	r.BlockOfFact = append(r.BlockOfFact, b)
	return true, newBlock
}

// layout groups the facts by block — blocks in ordinal order, facts
// ascending within each — and builds each column's posting. count is
// zeroed scratch with an entry per symbol and per block, which layout
// leaves zeroed.
func (r *IRel) layout(count []uint32) {
	nb := r.NumBlocks()
	r.BlockOff = make([]uint32, nb+1)
	for _, b := range r.BlockOfFact {
		r.BlockOff[b+1]++
	}
	for b := 1; b <= nb; b++ {
		r.BlockOff[b] += r.BlockOff[b-1]
	}
	r.ByBlock = make([]uint32, len(r.BlockOfFact))
	for fi, b := range r.BlockOfFact {
		r.ByBlock[r.BlockOff[b]+count[b]] = uint32(fi)
		count[b]++
	}
	clear(count[:nb])
	r.postings = make([]posting, r.Arity)
	for p, col := range r.Cols {
		r.postings[p] = newPosting(col, count)
	}
}

// newPosting indexes col by id, numbering the runs in first-occurrence
// order. count is zeroed scratch with an entry per symbol, which newPosting
// leaves zeroed: it counts each id's facts, then holds the id's next slot
// with the placed bit set.
func newPosting(col, count []uint32) posting {
	const placed = 1 << 31
	runs := 0
	for _, id := range col {
		if count[id] == 0 {
			runs++
		}
		count[id]++
	}
	pl := posting{
		at:    make(map[uint32]uint32, runs),
		off:   make([]uint32, runs+1),
		facts: make([]uint32, len(col)),
	}
	next := uint32(0)
	for fi, id := range col {
		if c := count[id]; c&placed == 0 {
			k := uint32(len(pl.at))
			pl.at[id] = k
			pl.off[k] = next
			count[id] = next | placed
			next += c
		}
		pl.facts[count[id]&^placed] = uint32(fi)
		count[id]++
	}
	pl.off[runs] = next
	for _, id := range col {
		count[id] = 0
	}
	return pl
}
