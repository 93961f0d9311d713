package db

import (
	"github.com/cqa-go/certainty/internal/intern"
	"github.com/cqa-go/certainty/internal/obs"
)

var internBuilds = obs.Default.Counter("db_intern_builds_total")

func init() {
	obs.Default.Help("db_intern_builds_total", "Interned columnar views built (first use after mutation).")
}

// Interned is the dense-id columnar view of a database: every relation name
// and constant is interned to a uint32, and each relation's facts are stored
// as per-column []uint32 with block-offset arrays. It is an immutable
// snapshot built lazily on first use (DB.Interned) and dropped on mutation;
// evaluation hot paths in engine/fo/solver run entirely over it, touching
// strings only at the boundary (query compile, result materialization).
//
// Id assignment is deterministic: relation names and arguments are interned
// by one pass over the global fact insertion order. Snapshots preserve that
// order, so a save→reload round-trip reproduces the exact same ids (locked
// by TestInternedSnapshotStableIDs). Digests are computed from strings and
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

	blockIdx map[uint64][]uint32   // hash(key ids) → block ordinals (verify on probe)
	factIdx  map[uint64][]uint32   // hash(all ids) → fact indices (verify on probe)
	postings []map[uint32][]uint32 // per position: id → ascending fact indices
}

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
func (r *IRel) NumFacts() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return len(r.Cols[0])
}

// NumBlocks returns the number of blocks of the relation.
func (r *IRel) NumBlocks() int { return len(r.BlockOff) - 1 }

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

// BlockOf returns the fact indices of the block with the given key ids
// (len(key) must be KeyLen), or (nil, false) when no such block exists.
// Zero-alloc: the result is a shared sub-slice of ByBlock.
func (r *IRel) BlockOf(key []uint32) ([]uint32, bool) {
	for _, b := range r.blockIdx[hashIDs(key)] {
		span := r.BlockSpan(int(b))
		if r.keyMatches(span[0], key) {
			return span, true
		}
	}
	return nil, false
}

// FactIndex returns the index of the fact with exactly the given argument
// ids (len(args) must be Arity), or (0, false) when absent. Zero-alloc.
func (r *IRel) FactIndex(args []uint32) (uint32, bool) {
	for _, fi := range r.factIdx[hashIDs(args)] {
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
// position pos, as a shared slice. Zero-alloc.
func (r *IRel) Posting(pos int, id uint32) []uint32 {
	return r.postings[pos][id]
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

// Interned returns the dense-id columnar view of the database, building it
// on first use. The view is an immutable snapshot: mutations drop the
// pointer and the next call rebuilds. Clones share the view (it is
// immutable), so cloning stays O(facts) flat copies. Safe for concurrent
// readers; like all DB reads it must not race with mutations.
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

// buildInterned constructs the columnar view. Pass 1 interns symbols in
// global fact insertion order (fixing the deterministic id assignment and
// the active domain); pass 2 lays out each relation column-wise and builds
// the block/fact/posting indexes from the relation's own insertion-ordered
// structures.
func (d *DB) buildInterned() *Interned {
	internBuilds.Inc()
	syms := intern.NewTable()
	in := &Interned{
		Syms: syms,
		rels: make(map[string]*IRel, len(d.rels)),
	}
	seen := make(map[uint32]struct{})
	for _, f := range d.facts {
		syms.Intern(f.Rel)
		for _, a := range f.Args {
			id := syms.Intern(a)
			if _, ok := seen[id]; !ok {
				seen[id] = struct{}{}
				in.domain = append(in.domain, id)
			}
		}
	}
	in.isDomainSym = make([]bool, syms.Len())
	for _, id := range in.domain {
		in.isDomainSym[id] = true
	}

	for name, r := range d.rels {
		ir := &IRel{
			Arity:       r.sig[0],
			KeyLen:      r.sig[1],
			Cols:        make([][]uint32, r.sig[0]),
			ByBlock:     make([]uint32, 0, len(r.facts)),
			BlockOff:    make([]uint32, 1, len(r.blockOrder)+1),
			BlockOfFact: make([]uint32, len(r.facts)),
			blockIdx:    make(map[uint64][]uint32, len(r.blockOrder)),
			factIdx:     make(map[uint64][]uint32, len(r.facts)),
			postings:    make([]map[uint32][]uint32, r.sig[0]),
		}
		for p := range ir.Cols {
			ir.Cols[p] = make([]uint32, len(r.facts))
			ir.postings[p] = make(map[uint32][]uint32)
		}
		args := make([]uint32, r.sig[0])
		for i, f := range r.facts {
			for p, a := range f.Args {
				id, _ := syms.Lookup(a)
				ir.Cols[p][i] = id
				ir.postings[p][id] = append(ir.postings[p][id], uint32(i))
				args[p] = id
			}
			h := hashIDs(args)
			ir.factIdx[h] = append(ir.factIdx[h], uint32(i))
		}
		for b, bid := range r.blockOrder {
			blk := r.blocks[bid]
			for _, f := range blk {
				fi := uint32(r.ids[f.ID()])
				ir.ByBlock = append(ir.ByBlock, fi)
				ir.BlockOfFact[fi] = uint32(b)
			}
			ir.BlockOff = append(ir.BlockOff, uint32(len(ir.ByBlock)))
			first := ir.ByBlock[ir.BlockOff[b]]
			kh := hashIDs(keyOf(ir, first))
			ir.blockIdx[kh] = append(ir.blockIdx[kh], uint32(b))
		}
		in.rels[name] = ir
	}
	return in
}

// keyOf reads the key ids of fact fi into a fresh slice (build-time only).
func keyOf(r *IRel, fi uint32) []uint32 {
	key := make([]uint32, r.KeyLen)
	for p := 0; p < r.KeyLen; p++ {
		key[p] = r.Cols[p][fi]
	}
	return key
}
