package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/server"
	"github.com/cqa-go/certainty/internal/solver"
)

// The request stream is a pure function of the seed: every op draws its
// instance from its own generator, seeded by (seed, stream, index), so ops
// can be built on several goroutines and still come out byte-identical.

// opKind is what an op asks of certd.
type opKind int

const (
	opSolve opKind = iota // POST /v1/solve
	opWrite               // POST or DELETE /v1/db/facts
	opBatch               // POST /v1/solve/batch
)

// op is one generated request with the verdicts it must come back with.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	// want holds the expected outcome of each verdict in the response: one
	// for a solve, one per item for a batch, none for a write.
	want []solver.Outcome
}

// Default budget and timeout of certd's solves; the expected verdicts are
// computed under the same limits, so every generated instance is one the
// default settings decide exactly.
const (
	defaultBudget  = 1_000_000
	defaultTimeout = 5 * time.Second
)

// Sub-stream identifiers keep the generators of different parts of a run
// apart.
const (
	streamWarmup = iota + 1
	streamMain
	streamArrivals
	streamGroups
	streamToggles
)

// opRand returns the generator of op i of a sub-stream.
func opRand(seed int64, stream, i int) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<56 ^ uint64(i)
	// splitmix64 finalizer: nearby (seed, stream, i) give unrelated seeds.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// family draws instances of one shape. Its plan is compiled once, by the
// generator, for the expected verdicts.
type family struct {
	weight int
	q      cq.Query
	draw   func(r *rand.Rand) *db.DB

	once sync.Once
	plan *solver.Plan
}

var (
	queryFO2 = cq.MustParseQuery("R(x | y), S(y | z)")
	queryFO3 = cq.MustParseQuery("R(x | y), S(y | z), T(z | w)")
	queryTrm = gen.TerminalPairsQuery(2, true)
)

func randomFamily(weight int, q cq.Query, c gen.Config) *family {
	return &family{weight: weight, q: q, draw: func(r *rand.Rand) *db.DB {
		return gen.RandomDB(q, c, r.Int63())
	}}
}

// cycleFamily draws AC(3) (ac) or C(3) instances of about 160 facts: width-2
// components, which no repair makes certain, or width-1 components, which
// every repair does.
func cycleFamily(weight int, ac bool) *family {
	q := cq.Ck(3)
	if ac {
		q = cq.ACk(3)
	}
	return &family{weight: weight, q: q, draw: func(r *rand.Rand) *db.DB {
		cfg := gen.CycleConfig{K: 3, Width: 2, EncodeAll: true, SkipSk: !ac}
		switch {
		case r.Intn(2) == 0:
			cfg.Width, cfg.Components = 1, 40
		case ac:
			cfg.Components = 8
		default:
			cfg.Components = 13
		}
		return gen.CycleDB(cfg)
	}}
}

// q0Family draws small coNP-complete q0 instances (Theorem 2).
func q0Family(weight int) *family {
	return &family{weight: weight, q: cq.Q0(), draw: func(r *rand.Rand) *db.DB {
		return gen.Q0DB(6+r.Intn(3), 2, 4, r.Int63())
	}}
}

// Instance mixes. Weights are out of 100.
var (
	inlineFamilies = []*family{
		randomFamily(40, queryFO2, gen.Config{Embeddings: 2, Noise: 125, Domain: 100}), // ~250 facts
		randomFamily(10, queryFO2, gen.Config{Embeddings: 2, Noise: 500, Domain: 400}), // ~1000 facts
		randomFamily(15, queryFO3, gen.Config{Embeddings: 1, Noise: 84, Domain: 70}),   // ~250 facts
		randomFamily(5, queryFO3, gen.Config{Embeddings: 1, Noise: 330, Domain: 300}),  // ~1000 facts
		cycleFamily(10, true),
		cycleFamily(10, false),
		q0Family(10),
	}
	// batchFamilies is indexed by placement group modulo its length.
	batchFamilies = []*family{
		randomFamily(1, queryTrm, gen.Config{Embeddings: 16, Noise: 4, Domain: 8}), // terminal cycles, ~100 facts
		cycleFamily(1, true),
		q0Family(1),
	}
)

func pick(fams []*family, r *rand.Rand) *family {
	total := 0
	for _, f := range fams {
		total += f.weight
	}
	n := r.Intn(total)
	for _, f := range fams {
		if n < f.weight {
			return f
		}
		n -= f.weight
	}
	panic("unreachable")
}

// expect decides an instance of the family anew in-process, with
// the generator's own plan: no cache is shared with the served path. ok is
// false when the default limits cut the solve off; such instances are
// redrawn, so every expected verdict is exact.
func (f *family) expect(d *db.DB) (solver.Outcome, bool) {
	f.once.Do(func() {
		var err error
		if f.plan, err = solver.CompilePlan(f.q); err != nil {
			panic(fmt.Sprintf("compile %s: %v", f.q, err))
		}
	})
	return expect(f.plan, d)
}

func expect(p *solver.Plan, d *db.DB) (solver.Outcome, bool) {
	v, err := p.SolveCtx(context.Background(), d, solver.Options{Budget: defaultBudget, Timeout: defaultTimeout})
	if err != nil {
		panic(fmt.Sprintf("solve: %v", err))
	}
	return v.Outcome, v.Outcome != solver.OutcomeUnknown
}

// rendered is an instance in wire text, with request-unique names: tag
// suffixes every variable and constant, so no two requests carry the same
// database, and relSuffix (possibly empty) suffixes every relation, which
// moves the instance to another placement group. Renaming is a bijection,
// so the renamed instance has the original's verdict.
type rendered struct {
	query, db string
}

func writeAtom(b *strings.Builder, rel string, keyLen int, args []string, tag, relSuffix string) {
	b.WriteString(rel)
	b.WriteString(relSuffix)
	b.WriteByte('(')
	for i, a := range args {
		switch {
		case i == 0:
		case i == keyLen:
			b.WriteString(" | ")
		default:
			b.WriteString(", ")
		}
		b.WriteString(a)
		b.WriteByte('_')
		b.WriteString(tag)
	}
	b.WriteByte(')')
}

func render(q cq.Query, d *db.DB, tag, relSuffix string) rendered {
	var qb, fb strings.Builder
	for i, a := range q.Atoms {
		if i > 0 {
			qb.WriteString(", ")
		}
		args := make([]string, len(a.Args))
		for j, t := range a.Args {
			if t.IsConst {
				panic("generated queries have no constants")
			}
			args[j] = t.Value
		}
		writeAtom(&qb, a.Rel, a.KeyLen, args, tag, relSuffix)
	}
	if d != nil {
		for _, f := range d.Facts() {
			writeAtom(&fb, f.Rel, f.KeyLen, f.Args, tag, relSuffix)
			fb.WriteByte('\n')
		}
	}
	return rendered{qb.String(), fb.String()}
}

// drawDecided draws instances from fams until one is decided exactly, and
// renders it with tag and relSuffix.
func drawDecided(fams []*family, r *rand.Rand, tag, relSuffix string) (rendered, solver.Outcome) {
	for {
		f := pick(fams, r)
		d := f.draw(r)
		if want, ok := f.expect(d); ok {
			return render(f.q, d, tag, relSuffix), want
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// parallelOps builds n ops with build(i) on nproc goroutines. A panic in
// build is re-raised on the caller's goroutine, where the run's cleanup
// can still see it.
func parallelOps(n, nproc int, build func(i int) op) []op {
	ops := make([]op, n)
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { panicked = p })
				}
			}()
			for i := w; i < n; i += nproc {
				ops[i] = build(i)
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return ops
}

// inlineOp is a stateless solve carrying its database inline.
func inlineOp(seed int64, stream, i int) op {
	r := opRand(seed, stream, i)
	in, want := drawDecided(inlineFamilies, r, "s"+strconv.Itoa(stream)+"i"+strconv.Itoa(i), "")
	return op{
		kind:   opSolve,
		method: "POST",
		path:   "/v1/solve",
		body:   mustJSON(server.SolveRequest{Query: in.query, DB: in.db}),
		want:   []solver.Outcome{want},
	}
}

// Batch shape: itemsPerGroup items in each of groupsPerBatch placement
// groups, each group one relation set out of batchGroupIDs.
const (
	groupsPerBatch = 8
	itemsPerGroup  = 8
	batchGroupIDs  = 256
)

// batchOp is one fleet batch of groupsPerBatch×itemsPerGroup distinct items.
func batchOp(seed int64, stream, i int) op {
	groups := opRand(seed, streamGroups, stream<<32+i).Perm(batchGroupIDs)[:groupsPerBatch]
	req := server.BatchSolveRequest{}
	var want []solver.Outcome
	for gi, g := range groups {
		fam := batchFamilies[g%len(batchFamilies) : g%len(batchFamilies)+1]
		for k := 0; k < itemsPerGroup; k++ {
			item := gi*itemsPerGroup + k
			ir := opRand(seed, stream, i*groupsPerBatch*itemsPerGroup+item)
			tag := "s" + strconv.Itoa(stream) + "b" + strconv.Itoa(i) + "i" + strconv.Itoa(item)
			in, w := drawDecided(fam, ir, tag, fmt.Sprintf("g%03d", g))
			req.Items = append(req.Items, server.BatchSolveItem{Query: in.query, DB: in.db})
			want = append(want, w)
		}
	}
	return op{kind: opBatch, method: "POST", path: "/v1/solve/batch", body: mustJSON(req), want: want}
}

// The hosted database: hostedComponents width-2 C(3) components (12 facts
// each), none of which any repair makes certain, plus an unrelated relation
// U whose query every repair satisfies, plus one toggle fact. Writes roll
// the toggle: write 2j inserts toggle j and write 2j+1 deletes toggle j-1,
// so the size stays put while every write leaves content no earlier write
// produced, and the next read of the written relations re-solves. A toggle
// is one more R1 fact in the first block of one component: adding a fact
// to a block only adds repairs, so every component stays never-certain, and
// the verdicts of both read queries are fixed by construction.
const (
	hostedComponents = 1000
	hostedUFacts     = 200
)

var (
	hostedQuery = cq.Ck(3)
	untouchedQ  = cq.MustParseQuery("U(x | y)")
)

// toggle returns toggle j (j >= -1) in db text; toggle -1 is in the seed.
func toggle(seed int64, j int) string {
	comp := opRand(seed, streamToggles, 0).Perm(hostedComponents)[(j+1)%hostedComponents]
	return fmt.Sprintf("R1(v%d_0_0 | t%d)", comp, j+1)
}

// hostedSeed returns the seed database of the hosted store, in db text.
func hostedSeed(seed int64) string {
	cycles := gen.CycleDB(gen.CycleConfig{K: 3, Components: hostedComponents, Width: 2, SkipSk: true})
	u := gen.RandomDB(untouchedQ, gen.Config{Noise: hostedUFacts, Domain: hostedUFacts * 3 / 4}, seed)
	d, err := db.Union(cycles, u)
	if err != nil {
		panic(err)
	}
	return d.String() + toggle(seed, -1) + "\n"
}

// hostedOps builds n hosted ops in a fixed pattern of five: a write after
// every four reads, three of which query the written relations and one
// the untouched relation. A fixed pattern gives every run and every
// stretch of a run the same share of re-solves. Reads carry no database,
// so they solve against the hosted snapshot.
func hostedOps(seed int64, stream, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		if i%5 == 4 {
			w := i / 5
			method, fact := "POST", toggle(seed, w/2)
			if w%2 == 1 {
				method, fact = "DELETE", toggle(seed, w/2-1)
			}
			ops[i] = op{kind: opWrite, method: method, path: "/v1/db/facts",
				body: mustJSON(server.DBMutateRequest{Facts: fact})}
			continue
		}
		q, want := hostedQuery, solver.OutcomeNotCertain
		if i%5 == 2 {
			q, want = untouchedQ, solver.OutcomeCertain
		}
		// The seed names the query variables, so streams differ by seed.
		tag := "s" + strconv.Itoa(stream) + "r" + strconv.Itoa(opRand(seed, stream, i).Intn(1<<30))
		ops[i] = op{kind: opSolve, method: "POST", path: "/v1/solve",
			body: mustJSON(server.SolveRequest{Query: render(q, nil, tag, "").query}),
			want: []solver.Outcome{want}}
	}
	return ops
}

// arrivals returns the send offsets of a Poisson process at rate per second
// over d.
func arrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	r := opRand(seed, streamArrivals, 0)
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// streamHash digests everything the program receives from a stream: the
// hosted seed text, then every request (method, path, body) in order with
// its send offset in the open loop.
func streamHash(st *stream) string {
	h := sha256.New()
	h.Write([]byte(st.hostedText))
	write := func(o op, at time.Duration) {
		fmt.Fprintf(h, "%s %s %d %d\n", o.method, o.path, at, len(o.body))
		h.Write(o.body)
	}
	for _, o := range st.warmup {
		write(o, -1)
	}
	for i, o := range st.ops {
		at := time.Duration(-1)
		if i < len(st.sched) {
			at = st.sched[i]
		}
		write(o, at)
	}
	return hex.EncodeToString(h.Sum(nil))
}
