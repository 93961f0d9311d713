package solver

import (
	"context"
	"sync"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/intern"
)

// Argument kinds of the interned FO schedule. At each level, a residual
// atom's argument is a constant of the runtime query (foConst), a variable
// grounded by an earlier level's elimination (foBound), or a variable this
// level grounds (foBind). The classification is static: the depth-L residual
// always has the same shape, so bound-ness is a function of the compile-time
// elimination order alone.
const (
	foConst uint8 = iota
	foBound
	foBind
)

// foArg is one compiled argument: idx is a constant ordinal (foConst) or an
// environment slot (foBound / foBind).
type foArg struct {
	kind uint8
	idx  uint16
}

// constRef locates a constant in the runtime query. A program may be applied
// to any query with the compiled shape, and shapes mask constants — so the
// ids to probe with must come from the query actually being solved, not the
// one compiled against.
type constRef struct{ atom, pos int }

// foStep is one level of the interned schedule: the relation signature to
// resolve, the lowered arguments, and whether the block key is fully
// determined at level entry (constants or slots bound by earlier levels),
// in which case a single hash probe replaces the all-blocks scan — exactly
// when the residual atom of Theorem 1's recursion has a ground key.
type foStep struct {
	rel      string
	arity    int
	keyLen   int
	args     []foArg
	keyReady bool
}

// compileStep lowers the elimination of original atom ai. slots carries the
// variables grounded by previously eliminated atoms; the snapshot of the
// slot counter at entry distinguishes them from variables first bound within
// this very atom, which are NOT determined at level entry (a key position
// holding one forces the all-blocks scan: in the residual atom such a
// position is still a variable).
func (p *FOProgram) compileStep(q cq.Query, ai int, slots map[string]uint16) {
	a := q.Atoms[ai]
	entryN := uint16(p.nslots)
	st := foStep{rel: a.Rel, arity: len(a.Args), keyLen: a.KeyLen, args: make([]foArg, len(a.Args)), keyReady: true}
	for j, t := range a.Args {
		if t.IsConst {
			st.args[j] = foArg{kind: foConst, idx: uint16(len(p.constRefs))}
			p.constRefs = append(p.constRefs, constRef{atom: ai, pos: j})
			continue
		}
		if s, ok := slots[t.Value]; ok {
			st.args[j] = foArg{kind: foBound, idx: s}
			continue
		}
		s := uint16(p.nslots)
		p.nslots++
		slots[t.Value] = s
		st.args[j] = foArg{kind: foBind, idx: s}
	}
	for j := 0; j < st.keyLen; j++ {
		ag := st.args[j]
		if ag.kind == foConst || (ag.kind == foBound && ag.idx < entryN) {
			continue
		}
		st.keyReady = false
		break
	}
	if st.keyReady && st.keyLen > p.maxKey {
		p.maxKey = st.keyLen
	}
	p.sched = append(p.sched, st)
}

// foScratch is the pooled runtime of the interned recursion: the slot
// environment, the key probe buffer, the resolved constant ids, the
// resolved per-level relations, and the caller's context, query and
// database for a Theorem 3 leaf. A warm run allocates nothing.
type foScratch struct {
	env    []uint32
	key    []uint32
	consts []uint32
	rels   []*db.IRel
	ctx    context.Context
	q      cq.Query
	d      *db.DB
}

var foScratchPool = sync.Pool{New: func() any { return new(foScratch) }}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// steppedInterned runs the interned recursion after the entry step has been
// charged. Constants resolve to their ids — or intern.None when absent from
// the database, which matches no fact and no block, exactly as an unknown
// string matches nothing. Relations resolve to their columnar storage, or
// nil on absence or signature mismatch: every block of such a relation
// fails unification on its first fact, so the level is false without
// recursing.
func (p *FOProgram) steppedInterned(ctx context.Context, g *govern.Governor, q cq.Query, d *db.DB) (bool, error) {
	in := d.Interned()
	sc := foScratchPool.Get().(*foScratch)
	sc.ctx, sc.q, sc.d = ctx, q, d
	defer func() {
		sc.ctx, sc.q, sc.d = nil, cq.Query{}, nil // the pool outlives the call
		foScratchPool.Put(sc)
	}()

	sc.consts = sc.consts[:0]
	for _, cr := range p.constRefs {
		id, ok := in.Syms.Lookup(q.Atoms[cr.atom].Args[cr.pos].Value)
		if !ok {
			id = intern.None
		}
		sc.consts = append(sc.consts, id)
	}
	sc.rels = sc.rels[:0]
	for i := range p.sched {
		st := &p.sched[i]
		r := in.Rel(st.rel)
		if r != nil && (r.Arity != st.arity || r.KeyLen != st.keyLen) {
			r = nil
		}
		sc.rels = append(sc.rels, r)
	}
	sc.env = growU32(sc.env, p.nslots)
	sc.key = growU32(sc.key, p.maxKey)
	return p.istepped(g, sc, 0)
}

// irun charges one governor step per search node entered — one per
// recursive call of Theorem 1's rewriting — then descends.
func (p *FOProgram) irun(g *govern.Governor, sc *foScratch, level int) (bool, error) {
	if err := g.Step(); err != nil {
		return false, err
	}
	return p.istepped(g, sc, level)
}

// istepped runs one level; past the last, Theorem 3's base case remains.
func (p *FOProgram) istepped(g *govern.Governor, sc *foScratch, level int) (bool, error) {
	if level == len(p.sched) {
		if p.base == nil {
			return true, nil
		}
		return p.base.certain(sc.ctx, sc.q, sc.d, sc.env)
	}
	st := &p.sched[level]
	r := sc.rels[level]
	if r == nil {
		return false, nil
	}
	if st.keyReady {
		key := sc.key[:st.keyLen]
		for j := 0; j < st.keyLen; j++ {
			ag := st.args[j]
			if ag.kind == foConst {
				key[j] = sc.consts[ag.idx]
			} else {
				key[j] = sc.env[ag.idx]
			}
		}
		span, ok := r.BlockOf(key)
		if !ok {
			return false, nil
		}
		return p.tryBlock(g, sc, st, r, span, level)
	}
	for b, nb := 0, r.NumBlocks(); b < nb; b++ {
		ok, err := p.tryBlock(g, sc, st, r, r.BlockSpan(b), level)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// tryBlock checks whether EVERY fact of the block unifies with the level's
// atom and makes the remainder certain — the ∀-within-block of Theorem 1's
// rewriting. Bind slots are written left-to-right before any same-atom read,
// and are freely overwritten across facts and branches: every level reads
// only slots bound at shallower levels or within its own atom, so no
// unbinding is ever needed.
func (p *FOProgram) tryBlock(g *govern.Governor, sc *foScratch, st *foStep, r *db.IRel, span []uint32, level int) (bool, error) {
	for _, fi := range span {
		for j := range st.args {
			ag := st.args[j]
			v := r.Arg(fi, j)
			switch ag.kind {
			case foConst:
				if sc.consts[ag.idx] != v {
					return false, nil
				}
			case foBound:
				if sc.env[ag.idx] != v {
					return false, nil
				}
			default: // foBind
				sc.env[ag.idx] = v
			}
		}
		sub, err := p.irun(g, sc, level+1)
		if err != nil {
			return false, err
		}
		if !sub {
			return false, nil
		}
	}
	return true, nil
}
