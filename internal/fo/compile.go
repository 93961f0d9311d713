package fo

import (
	"fmt"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
)

// Compiled is a sentence translated into a closure tree with slot-indexed
// variable bindings over the database's interned columnar view (see
// interned.go): evaluation allocates no maps and performs no AST dispatch,
// which makes repeated evaluation (certain answers over many candidates,
// benchmark loops) several times faster than Eval, the interpreter, which
// decides the same formulas.
type Compiled struct {
	numSlots int
	free     []string // free variables in sorted order; free[i] occupies slot i
	eval     inode
	consts   []string
	iatoms   []iAtomRef     // atom ordinal → relation reference to resolve per DB
	maxArity int            // widest atom, for the argument scratch buffer
	constOrd map[string]int // constant value → ordinal in consts
}

// Compile translates a formula. Free variables become parameters that must
// be bound via EvalWith; sentences evaluate with Eval. Panics on malformed
// hand-built formulas are converted into errors.
func Compile(f Formula) (c *Compiled, err error) {
	defer containPanic(&err)
	c = &Compiled{free: FreeVars(f).Sorted(), constOrd: make(map[string]int)}
	slots := make(map[string]int)
	for _, x := range c.free {
		slots[x] = c.numSlots
		c.numSlots++
	}
	collectConstants(f, func(v string) {
		if _, ok := c.constOrd[v]; !ok {
			c.constOrd[v] = len(c.consts)
			c.consts = append(c.consts, v)
		}
	})
	node, err := c.compile(f, slots)
	if err != nil {
		return nil, err
	}
	c.eval = node
	return c, nil
}

// iref is one compiled argument: a constant ordinal (resolved to an id per
// database) or an environment slot.
type iref struct {
	constIdx int // -1 for a variable
	slot     int
}

func (c *Compiled) compileRef(t cq.Term, slots map[string]int) (iref, error) {
	if t.IsConst {
		ord, ok := c.constOrd[t.Value]
		if !ok {
			return iref{}, fmt.Errorf("fo: constant %q missing from constant table", t.Value)
		}
		return iref{constIdx: ord}, nil
	}
	slot, ok := slots[t.Value]
	if !ok {
		return iref{}, fmt.Errorf("fo: unbound variable %s", t.Value)
	}
	return iref{constIdx: -1, slot: slot}, nil
}

func (c *Compiled) compile(f Formula, slots map[string]int) (inode, error) {
	switch g := f.(type) {
	case Truth:
		v := bool(g)
		return func(*irt) bool { return v }, nil
	case Atom:
		srcs := make([]iref, len(g.A.Args))
		for i, t := range g.A.Args {
			ref, err := c.compileRef(t, slots)
			if err != nil {
				return nil, fmt.Errorf("%w in %s", err, g.A)
			}
			srcs[i] = ref
		}
		if len(srcs) > c.maxArity {
			c.maxArity = len(srcs)
		}
		ord := len(c.iatoms)
		c.iatoms = append(c.iatoms, iAtomRef{rel: g.A.Rel, arity: len(srcs)})
		return func(rt *irt) bool {
			r := rt.rels[ord]
			if r == nil {
				return false
			}
			args := rt.args[:len(srcs)]
			for i, s := range srcs {
				args[i] = rt.resolve(s)
			}
			return r.HasTuple(args)
		}, nil
	case Eq:
		l, err := c.compileRef(g.L, slots)
		if err != nil {
			return nil, err
		}
		r, err := c.compileRef(g.R, slots)
		if err != nil {
			return nil, err
		}
		return func(rt *irt) bool { return rt.resolve(l) == rt.resolve(r) }, nil
	case Not:
		sub, err := c.compile(g.F, slots)
		if err != nil {
			return nil, err
		}
		return func(rt *irt) bool { return !sub(rt) }, nil
	case And:
		subs, err := c.compileAll(g.Fs, slots)
		if err != nil {
			return nil, err
		}
		return func(rt *irt) bool {
			for _, s := range subs {
				if !s(rt) {
					return false
				}
			}
			return true
		}, nil
	case Or:
		subs, err := c.compileAll(g.Fs, slots)
		if err != nil {
			return nil, err
		}
		return func(rt *irt) bool {
			for _, s := range subs {
				if s(rt) {
					return true
				}
			}
			return false
		}, nil
	case Implies:
		hyp, err := c.compile(g.Hyp, slots)
		if err != nil {
			return nil, err
		}
		concl, err := c.compile(g.Concl, slots)
		if err != nil {
			return nil, err
		}
		return func(rt *irt) bool { return !hyp(rt) || concl(rt) }, nil
	case Exists:
		return c.compileQuantifier(g.Vars, g.F, slots, true)
	case Forall:
		return c.compileQuantifier(g.Vars, g.F, slots, false)
	default:
		return nil, fmt.Errorf("fo: cannot compile %T", f)
	}
}

func (c *Compiled) compileQuantifier(vars []string, body Formula, slots map[string]int, existential bool) (inode, error) {
	inner := make(map[string]int, len(slots)+len(vars))
	for k, v := range slots {
		inner[k] = v
	}
	varSlots := make([]int, len(vars))
	for i, v := range vars {
		inner[v] = c.numSlots
		varSlots[i] = c.numSlots
		c.numSlots++
	}
	sub, err := c.compile(body, inner)
	if err != nil {
		return nil, err
	}
	n := len(varSlots)
	return func(rt *irt) bool {
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == n {
				return sub(rt)
			}
			for _, v := range rt.dom {
				rt.env[varSlots[i]] = v
				ok := rec(i + 1)
				if existential && ok {
					return true
				}
				if !existential && !ok {
					return false
				}
			}
			return !existential
		}
		return rec(0)
	}, nil
}

func (c *Compiled) compileAll(fs []Formula, slots map[string]int) ([]inode, error) {
	out := make([]inode, len(fs))
	for i, f := range fs {
		sub, err := c.compile(f, slots)
		if err != nil {
			return nil, err
		}
		out[i] = sub
	}
	return out, nil
}

// Eval evaluates a compiled sentence; it fails if the formula has free
// variables.
func (c *Compiled) Eval(d *db.DB) (ok bool, err error) {
	defer containPanic(&err)
	if len(c.free) > 0 {
		return false, fmt.Errorf("fo: compiled formula has free variables; use EvalWith")
	}
	return c.run(d, nil), nil
}

// EvalWith evaluates with the free variables bound by binding. Every bound
// value joins the quantification domain, as the formula's constants do.
func (c *Compiled) EvalWith(d *db.DB, binding cq.Valuation) (ok bool, err error) {
	defer containPanic(&err)
	for _, x := range c.free {
		if _, ok := binding[x]; !ok {
			return false, fmt.Errorf("fo: unbound free variable %s", x)
		}
	}
	return c.run(d, binding), nil
}
