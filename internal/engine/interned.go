package engine

import (
	"sync"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/intern"
)

// Argument kinds after compile-time binding analysis. The atom order is
// fixed before compilation, so whether a variable is already bound when an
// atom is reached is statically known: each argument lowers to a constant
// id compare, a slot compare, or a slot write — no runtime bound-tracking,
// no map, no unbinding (a slot is always rewritten before any read).
const (
	argConst uint8 = iota // compare against a fixed id
	argBound              // compare against env[slot]
	argBind               // write env[slot] (first occurrence)
)

type iArg struct {
	kind uint8
	id   uint32 // argConst: the constant's id (intern.None when absent from d)
	slot uint16 // argBound/argBind: the variable's slot
}

// iAtom is one compiled level of the embedding search.
type iAtom struct {
	rel  *db.IRel // nil when the relation is absent, signature-mismatched, or has no block in the set
	keep bitset   // blocks of rel in the set; nil when every block is
	args []iArg
	// keyReady: every key position is determined (const or bound) at entry,
	// so candidates narrow to one block probe.
	keyReady bool
	// det lists the determined positions at entry, for posting selection.
	det []int
}

// iProg is a query compiled against one interned view for one atom order.
type iProg struct {
	atoms  []iAtom
	vars   []string // slot → variable name
	maxKey int
	in     *db.Interned
}

// compileInterned lowers q (in the given evaluation order) against the
// block set's interned view. Constants absent from the view lower to
// intern.None, which matches nothing — the search still walks the same
// nodes (and charges the same governor steps) as with a present constant,
// it just finds no candidates. Facts of blocks outside the set are skipped
// before verification, so the search walks exactly the nodes it would walk
// over the set materialized as a database.
func compileInterned(q cq.Query, order []int, s BlockSet) *iProg {
	in := s.in
	p := &iProg{atoms: make([]iAtom, len(order)), in: in}
	slots := make(map[string]uint16, 8)
	for li, ai := range order {
		a := q.Atoms[ai]
		ia := iAtom{args: make([]iArg, len(a.Args))}
		if r := in.Rel(a.Rel); r != nil && r.Arity == len(a.Args) && r.KeyLen == a.KeyLen {
			ia.rel = r
			if s.keep != nil {
				ia.keep = s.keep[r]
				if ia.keep == nil {
					ia.rel = nil
				}
			}
		}
		// Slots below entrySlots were bound by earlier atoms; only those
		// (and constants) are determined when this level starts. A variable
		// repeating within this atom (R(x | x)) compares fine during
		// verification but must not drive candidate selection.
		entrySlots := uint16(len(p.vars))
		ia.keyReady = true
		for pos, t := range a.Args {
			switch {
			case t.IsConst:
				id, ok := in.Syms.Lookup(t.Value)
				if !ok {
					id = intern.None
				}
				ia.args[pos] = iArg{kind: argConst, id: id}
				ia.det = append(ia.det, pos)
			default:
				if s, ok := slots[t.Value]; ok {
					ia.args[pos] = iArg{kind: argBound, slot: s}
					if s < entrySlots {
						ia.det = append(ia.det, pos)
					} else if pos < a.KeyLen {
						ia.keyReady = false
					}
				} else {
					s := uint16(len(p.vars))
					slots[t.Value] = s
					p.vars = append(p.vars, t.Value)
					ia.args[pos] = iArg{kind: argBind, slot: s}
					if pos < a.KeyLen {
						ia.keyReady = false
					}
				}
			}
		}
		if a.KeyLen > p.maxKey {
			p.maxKey = a.KeyLen
		}
		p.atoms[li] = ia
	}
	return p
}

// iScratch holds every mutable slice one enumeration needs, pooled so a
// warm enumeration allocates nothing. env is the valuation (slot → id);
// facts records the matched fact index per level (consumed by purification
// marking); key is the block-probe buffer; bufs holds one intersection
// output per level (stable while deeper levels recurse).
type iScratch struct {
	env   []uint32
	facts []uint32
	key   []uint32
	bufs  [][]uint32
}

var iScratchPool = sync.Pool{New: func() any { return new(iScratch) }}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func getScratch(p *iProg) *iScratch {
	sc := iScratchPool.Get().(*iScratch)
	sc.env = growU32(sc.env, len(p.vars))
	sc.facts = growU32(sc.facts, len(p.atoms))
	sc.key = growU32(sc.key, p.maxKey)
	if cap(sc.bufs) < len(p.atoms) {
		sc.bufs = make([][]uint32, len(p.atoms))
	} else {
		sc.bufs = sc.bufs[:len(p.atoms)]
	}
	return sc
}

func putScratch(sc *iScratch) { iScratchPool.Put(sc) }

// intersectInto writes the intersection of two ascending lists into
// dst[:0], returning the filled slice. Ascending in, ascending out.
func intersectInto(dst, a, b []uint32) []uint32 {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// argVal resolves a determined argument (const or bound) to its id.
func argVal(ag *iArg, env []uint32) uint32 {
	if ag.kind == argConst {
		return ag.id
	}
	return env[ag.slot]
}

// level runs one level of the embedding search. A governor step is charged
// per node entry (a partial valuation, as in a textbook backtracking
// search), so budgets bound the search tree. Candidate narrowing (block
// probe, posting intersection) only skips facts the verifier would reject;
// every index yields ascending fact indices, which is insertion order, so
// embeddings come out in atom order × insertion order.
func (p *iProg) level(g *govern.Governor, sc *iScratch, li int, leaf func(*iScratch) (bool, error)) (bool, error) {
	if g != nil {
		if err := g.Step(); err != nil {
			return false, err
		}
	}
	if li == len(p.atoms) {
		return leaf(sc)
	}
	ia := &p.atoms[li]
	r := ia.rel
	if r == nil {
		return true, nil
	}
	var cands []uint32
	switch {
	case ia.keyReady:
		key := sc.key[:r.KeyLen]
		for i := 0; i < r.KeyLen; i++ {
			key[i] = argVal(&ia.args[i], sc.env)
		}
		span, ok := r.BlockOf(key)
		if !ok {
			return true, nil
		}
		cands = span
	case len(ia.det) == 0:
		// Full scan, without materializing an index list.
		n := uint32(r.NumFacts())
		for fi := uint32(0); fi < n; fi++ {
			cont, err := p.tryFact(g, sc, li, fi, leaf)
			if err != nil || !cont {
				return false, err
			}
		}
		return true, nil
	case len(ia.det) == 1:
		pos := ia.det[0]
		cands = r.Posting(pos, argVal(&ia.args[pos], sc.env))
	default:
		// Sorted-posting intersection: the two shortest determined postings
		// bound the candidate set; the per-fact verifier covers the rest.
		var p1, p2 []uint32
		first := true
		for _, pos := range ia.det {
			l := r.Posting(pos, argVal(&ia.args[pos], sc.env))
			if first {
				p1, first = l, false
			} else if len(l) < len(p1) {
				p1, p2 = l, p1
			} else if p2 == nil || len(l) < len(p2) {
				p2 = l
			}
		}
		if len(p1) == 0 {
			return true, nil
		}
		cands = intersectInto(sc.bufs[li], p1, p2)
		sc.bufs[li] = cands[:0]
	}
	for _, fi := range cands {
		cont, err := p.tryFact(g, sc, li, fi, leaf)
		if err != nil || !cont {
			return false, err
		}
	}
	return true, nil
}

// tryFact verifies candidate fi against level li's compiled arguments,
// binding first-occurrence variables, and recurses on a match. Facts of
// blocks outside the set are rejected first. Bind writes need no undo: a
// slot is rewritten by its binding level before any deeper read, and
// shallower levels never read it.
func (p *iProg) tryFact(g *govern.Governor, sc *iScratch, li int, fi uint32, leaf func(*iScratch) (bool, error)) (bool, error) {
	ia := &p.atoms[li]
	if ia.keep != nil && !ia.keep.get(ia.rel.BlockOfFact[fi]) {
		return true, nil
	}
	for pos := range ia.args {
		ag := &ia.args[pos]
		v := ia.rel.Cols[pos][fi]
		switch ag.kind {
		case argConst:
			if v != ag.id {
				return true, nil
			}
		case argBound:
			if v != sc.env[ag.slot] {
				return true, nil
			}
		default:
			sc.env[ag.slot] = v
		}
	}
	sc.facts[li] = fi
	return p.level(g, sc, li+1, leaf)
}

// valuation materializes the leaf environment as a cq.Valuation (owned by
// the caller, as the EachEmbedding contract requires).
func (p *iProg) valuation(sc *iScratch) cq.Valuation {
	v := make(cq.Valuation, len(p.vars))
	for s, name := range p.vars {
		v[name] = p.in.Syms.MustString(sc.env[s])
	}
	return v
}

// eachEmbedding is the one body of every embedding enumeration over a block
// set. One governor step is charged per search node, and enumeration aborts
// with the governor's error on cancellation, deadline, or budget
// exhaustion; g may be nil (no governor accounting, for EachEmbedding).
// The bool result is false iff some yield returned false; it is
// unspecified when the error is non-nil.
func eachEmbedding(g *govern.Governor, q cq.Query, s BlockSet, yield func(cq.Valuation) bool) (bool, error) {
	p := compileInterned(q, orderAtoms(q, s), s)
	sc := getScratch(p)
	defer putScratch(sc)
	return p.level(g, sc, 0, func(sc *iScratch) (bool, error) {
		return yield(p.valuation(sc)), nil
	})
}

// eval decides whether the set satisfies q without materializing any
// valuation; the one body of Eval and BlockSet.Eval.
func eval(g *govern.Governor, q cq.Query, s BlockSet) (bool, error) {
	p := compileInterned(q, orderAtoms(q, s), s)
	sc := getScratch(p)
	defer putScratch(sc)
	found := false
	_, err := p.level(g, sc, 0, func(*iScratch) (bool, error) {
		found = true
		return false, nil
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// purify is Lemma 1 over a block set, the one body of Purify and
// BlockSet.Purify. Each round marks the facts some embedding uses in
// per-relation bitsets straight from the matched fact indices (no fact
// IDs, no map) and keeps the blocks all of whose facts are used: Lemma 1
// removes whole blocks, and an unused fact marks its block irrelevant.
// Rounds repeat until one drops nothing.
func purify(g *govern.Governor, q cq.Query, s BlockSet) (BlockSet, error) {
	for {
		if g != nil {
			// The ungoverned Purify enumerates without the counter; the
			// governed one counts one enumeration per purification round.
			embeddingEnumerations.Inc()
		}
		p := compileInterned(q, orderAtoms(q, s), s)
		used := make(map[*db.IRel]bitset, len(p.atoms))
		for _, ia := range p.atoms {
			if ia.rel != nil && used[ia.rel] == nil {
				used[ia.rel] = newBitset(ia.rel.NumFacts())
			}
		}
		sc := getScratch(p)
		_, err := p.level(g, sc, 0, func(sc *iScratch) (bool, error) {
			for li := range p.atoms {
				used[p.atoms[li].rel].set(sc.facts[li])
			}
			return true, nil
		})
		putScratch(sc)
		if err != nil {
			return BlockSet{}, err
		}
		next := NewBlockSet(s.in)
		for r, u := range used {
		blocks:
			for b := 0; b < r.NumBlocks(); b++ {
				for _, fi := range r.BlockSpan(b) {
					if !u.get(fi) {
						continue blocks
					}
				}
				next.Add(r, uint32(b))
			}
		}
		// next is a subset of s, so equal sizes mean nothing was dropped.
		if next.numFacts() == s.numFacts() {
			return next, nil
		}
		s = next
	}
}
