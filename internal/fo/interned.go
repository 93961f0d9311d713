package fo

import (
	"sync"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// inode is one node of the interned closure tree: it reads and writes only
// the pooled runtime, so a warm evaluation allocates nothing.
type inode func(rt *irt) bool

// iAtomRef names a relation an atom probes; it is resolved to columnar
// storage once per evaluation (nil when absent or stored with another
// signature, making the atom uniformly false — exactly as the reference
// evaluator and the query engine treat such a relation).
type iAtomRef struct {
	rel    string
	arity  int
	keyLen int
}

// irt is the pooled interned runtime: the slot environment, the resolved
// constant ids, the resolved relations, the quantification domain, and an
// argument scratch buffer.
//
// Constants absent from the database intern table resolve to pseudo-ids
// just past the table (Len()+ordinal): distinct from every real id and
// from each other, so equality and probes behave exactly like the distinct
// fresh strings they stand for. Bound values of EvalWith that are neither
// interned nor constants get pseudo-ids past the constants' (fresh holds
// them in order), so equal values share an id.
type irt struct {
	env    []uint32
	args   []uint32
	consts []uint32
	rels   []*db.IRel
	dom    []uint32
	ext    []uint32 // ids outside the active domain that quantifiers also range over
	fresh  []string // bound values absent from the table and the constants
	domBuf []uint32
}

func (rt *irt) resolve(ref iref) uint32 {
	if ref.constIdx >= 0 {
		return rt.consts[ref.constIdx]
	}
	return rt.env[ref.slot]
}

var irtPool = sync.Pool{New: func() any { return new(irt) }}

func growIDs(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// extend adds id to the quantification domain unless the active domain or
// an earlier extension already holds it.
func (rt *irt) extend(in *db.Interned, id uint32) {
	if in.IsDomainSym(id) {
		return
	}
	for _, x := range rt.ext {
		if x == id {
			return
		}
	}
	rt.ext = append(rt.ext, id)
}

// boundID resolves a bound value: a constant's id (real or pseudo), an
// interned id, or the next pseudo-id past the constants' for a value not
// seen before in this evaluation.
func (c *Compiled) boundID(in *db.Interned, rt *irt, v string) uint32 {
	if ord, ok := c.constOrd[v]; ok {
		return rt.consts[ord]
	}
	if id, ok := in.Syms.Lookup(v); ok {
		return id
	}
	base := uint32(in.Syms.Len() + len(c.consts))
	for i, s := range rt.fresh {
		if s == v {
			return base + uint32(i)
		}
	}
	rt.fresh = append(rt.fresh, v)
	return base + uint32(len(rt.fresh)-1)
}

// run evaluates the compiled tree over the database's interned view: ids in
// the environment, columnar HasTuple probes, domain as an id slice. binding
// (nil for sentences) supplies the free variables; all of its values join
// the quantification domain. Zero allocations on a warm runtime for
// sentences.
func (c *Compiled) run(d *db.DB, binding cq.Valuation) bool {
	in := d.Interned()
	rt := irtPool.Get().(*irt)
	defer irtPool.Put(rt)
	rt.env = growIDs(rt.env, c.numSlots)
	rt.args = growIDs(rt.args, c.maxArity)
	rt.ext = rt.ext[:0]
	rt.fresh = rt.fresh[:0]

	rt.consts = rt.consts[:0]
	for i, v := range c.consts {
		id, found := in.Syms.Lookup(v)
		if !found {
			id = uint32(in.Syms.Len() + i) // pseudo-id: unique, outside the table
		}
		rt.consts = append(rt.consts, id)
		rt.extend(in, id)
	}
	for slot, x := range c.free {
		rt.env[slot] = c.boundID(in, rt, binding[x])
	}
	for _, v := range binding {
		rt.extend(in, c.boundID(in, rt, v))
	}
	clear(rt.fresh) // drop the strings; the pooled runtime outlives the call

	rt.rels = rt.rels[:0]
	for _, ar := range c.iatoms {
		r := in.Rel(ar.rel)
		if r != nil && (r.Arity != ar.arity || r.KeyLen != ar.keyLen) {
			r = nil
		}
		rt.rels = append(rt.rels, r)
	}

	// Quantifiers range over the active domain extended by the formula's
	// constants and the bound values. The shared domain slice is used
	// directly unless something extends it.
	rt.dom = in.Domain()
	if len(rt.ext) > 0 {
		rt.domBuf = append(append(rt.domBuf[:0], in.Domain()...), rt.ext...)
		rt.dom = rt.domBuf
	}
	return c.eval(rt)
}
