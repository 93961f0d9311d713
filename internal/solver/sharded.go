package solver

import (
	"context"
	"runtime"

	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/shard"
)

// metricShardSolves counts per-shard sub-solves by outcome; the per-shard
// identity (component index, shard index, fact count) rides on the
// "shard/solve" spans.
const metricShardSolves = "solver_shard_solves_total"

func init() {
	obs.Default.Help(metricShardSolves, "Sub-instance solves executed by the shard join, by outcome.")
}

// SolveSharded executes the plan with component-partitioned data
// parallelism: the instance splits along the shard.Decompose partition, the
// sub-instances are decided on the bounded worker pool, and the verdicts
// recombine exactly — conjunction across variable-disjoint query
// components, disjunction across a component's data shards (see the
// internal/shard package comment for why this algebra is exact). Conclusive
// verdicts are identical to SolveCtx's on the same instance.
//
// maxShards caps the data shards per query component; < 0 selects
// GOMAXPROCS. The step budget in opts is split across shards with ceiling
// division (a finite budget never becomes an unlimited share); the deadline
// is shared, not split. When the partition yields at most one shard there is
// nothing to fan out and the plan solves monolithically, byte-identically to
// SolveCtx.
//
// A cut-off sharded solve degrades like a monolithic one: OutcomeUnknown
// with the summed step count of the cut-off shards and, on the exponential
// path, the Monte-Carlo sampling pass over the whole instance (a sampled
// falsifying repair still upgrades the verdict to a conclusive
// OutcomeNotCertain).
func (p *Plan) SolveSharded(ctx context.Context, d *db.DB, maxShards int, opts Options) (Verdict, error) {
	v, _, err := p.SolveShardedMemo(ctx, d, maxShards, opts, nil)
	return v, err
}

// SolveShardedMemo is SolveSharded consulting a per-shard verdict memo: for
// every data shard it first looks up the shard's content fingerprint and
// reuses a memoized conclusive outcome instead of solving, then memoizes
// the conclusive outcomes of the shards it did solve. The memo never
// changes answers — a fingerprint addresses the shard's exact content, so a
// hit replays the verdict the solve would have computed — and conclusive
// verdicts stay byte-identical to SolveSharded and SolveCtx. The report
// accounts for the reuse; memo may be nil (plain SolveSharded behavior).
//
// Plans carrying a database rewrite (projection simplification) skip the
// memo: their shards are shards of the rewritten database, whose blocks are
// rebuilt per call, so fingerprinting them would hash fresh content every
// time and reuse nothing across calls.
func (p *Plan) SolveShardedMemo(ctx context.Context, d *db.DB, maxShards int, opts Options, memo *ShardMemo) (Verdict, DeltaReport, error) {
	if maxShards < 0 {
		maxShards = runtime.GOMAXPROCS(0)
	}
	ctx, root := obs.StartSpan(ctx, "solve")
	root.SetAttr("plan", "sharded")
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	var v Verdict
	var rep DeltaReport
	var steps int64
	err := govern.Safe(func() error {
		var innerErr error
		v, steps, innerErr = p.shardJoin(ctx, d, maxShards, opts, memo, &rep)
		return innerErr
	})
	endSolveSpan(root, steps, v, err)
	if err != nil {
		return Verdict{}, DeltaReport{}, err
	}
	return v, rep, nil
}

// shardOutcome is one shard's contribution to the join.
type shardOutcome struct {
	outcome Outcome
	err     error // cutoff cause when outcome is OutcomeUnknown
	steps   int64
	solved  bool // false when the fan-out was cancelled before this shard ran
}

// memoScope is the per-component view of the shard memo handed to
// solveComponent: the memo itself, the component's shard fingerprints and
// block-ID lists, and the report the reuse is accounted into. nil disables
// memoization for the component.
type memoScope struct {
	memo   *ShardMemo
	fps    []string
	blocks [][]string
	rep    *DeltaReport
}

// shardJoin does the decomposition, the fan-out, and the combine. It runs
// inside the caller's govern.Safe, so panics anywhere below surface as
// errors.
func (p *Plan) shardJoin(ctx context.Context, d *db.DB, maxShards int, opts Options, memo *ShardMemo, rep *DeltaReport) (Verdict, int64, error) {
	execD := d
	if p.rewriteDB != nil {
		var err error
		execD, err = p.rewriteDB(d)
		if err != nil {
			return Verdict{}, 0, err
		}
	}
	_, dsp := obs.StartSpan(ctx, "shard/decompose")
	dec := shard.Decompose(p.execQ, execD, maxShards)
	dsp.SetInt("components", int64(len(dec.Components)))
	dsp.SetInt("shards", int64(dec.NumShards()))
	dsp.End()

	// Component plans: the single-component case (every connected query)
	// reuses this plan's compiled artifacts; a genuinely disconnected query
	// compiles one plan per component. If any component resists compilation
	// — which cannot happen for the paper's query classes, but is cheap to
	// guard — the whole instance falls back to the monolithic path rather
	// than failing where SolveCtx would have succeeded.
	plans, ok := p.componentPlans(dec)
	if p.execQ.IsEmpty() || dec.NumShards() <= 1 || !ok {
		g := govern.New(ctx, govern.Options{Budget: opts.Budget, Fault: opts.Fault})
		defer g.Close()
		v, err := p.run(g.Attach(), g, d, opts)
		return v, g.Steps(), err
	}

	budgetShare := int64(0)
	if opts.Budget > 0 {
		n := int64(dec.NumShards())
		budgetShare = (opts.Budget + n - 1) / n
	}
	shardOpts := Options{
		Budget:         budgetShare,
		Fault:          opts.Fault,
		DegradeSamples: -1, // degradation sampling happens once, below, on the whole instance
	}

	// The memo engages only for plans without a database rewrite: execD is
	// then the caller's database, whose per-block digests the copy-on-write
	// index maintains incrementally, so fingerprinting is cheap and the
	// fingerprints are stable across mutations of other blocks.
	useMemo := memo != nil && p.rewriteDB == nil

	// Conjunction across query components, evaluated in order with early
	// exit: one not-certain component settles the whole instance.
	outcome := OutcomeCertain
	var firstCut error
	var totalSteps int64
	for j := range dec.Components {
		var mc *memoScope
		if useMemo {
			mc = &memoScope{
				memo:   memo,
				fps:    dec.ComponentFingerprints(execD, j),
				blocks: dec.Blocks[j],
				rep:    rep,
			}
		}
		cv, steps, err := solveComponent(ctx, plans[j], dec.Shards[j], j, shardOpts, mc)
		totalSteps += steps
		if err != nil {
			return Verdict{}, totalSteps, err
		}
		if cv.outcome == OutcomeNotCertain {
			outcome = OutcomeNotCertain
			firstCut = nil
			break
		}
		if cv.outcome == OutcomeUnknown {
			outcome = OutcomeUnknown
			if firstCut == nil {
				firstCut = cv.err
			}
		}
	}

	v := Verdict{
		Outcome: outcome,
		Result: Result{
			Certain:         outcome == OutcomeCertain,
			Method:          p.Method,
			Classification:  p.cls,
			Simplified:      p.simplified,
			SimplifiedClass: p.execCls.Class,
		},
	}
	if outcome == OutcomeUnknown {
		if firstCut == nil {
			firstCut = ctx.Err()
		}
		v.Err = firstCut
		v.Evidence = &Evidence{Steps: totalSteps}
		if p.Method == MethodFalsifying {
			sampleInto(context.WithoutCancel(ctx), &v, p.execQ, execD, opts)
		}
	}
	return v, totalSteps, nil
}

// componentPlans resolves the per-component plans of a decomposition. The
// single-component case reuses p's exec-stage artifacts (no recompilation);
// multi-component queries compile a plan per component.
func (p *Plan) componentPlans(dec *shard.Decomposition) ([]*Plan, bool) {
	if len(dec.Components) == 1 {
		return []*Plan{p.execStage()}, true
	}
	plans := make([]*Plan, len(dec.Components))
	for j, qj := range dec.Components {
		pj, err := CompilePlan(qj)
		if err != nil {
			return nil, false
		}
		plans[j] = pj
	}
	return plans, true
}

// execStage returns a plan that decides the exec-stage instance directly:
// same compiled artifacts, no database rewrite (the caller already applied
// it). Used to solve shards of the (single) exec query component.
func (p *Plan) execStage() *Plan {
	if p.rewriteDB == nil {
		return p
	}
	return &Plan{
		Query:    p.execQ,
		Key:      p.Key,
		Class:    p.execCls.Class,
		Method:   p.Method,
		cls:      p.execCls,
		execQ:    p.execQ,
		execCls:  p.execCls,
		foProg:   p.foProg,
		safeProg: p.safeProg,
	}
}

// solveComponent decides one query component as the disjunction of its data
// shards on the worker pool: any certain shard settles the component
// (remaining shards are cancelled), all-not-certain shards make it not
// certain, anything else — a cut-off shard, or a fan-out stopped by the
// caller's deadline — leaves it unknown with the first cutoff cause.
//
// With a memo scope, a pre-pass first resolves every shard whose
// fingerprint hits the memo: a memoized certain shard settles the component
// with zero solves, memoized not-certain shards drop out of the fan-out,
// and only the misses are actually solved — whose conclusive outcomes are
// memoized afterwards. Reuse changes scheduling only; the combine below
// sees exactly the outcomes a full fan-out would have produced.
func solveComponent(ctx context.Context, pj *Plan, shards []*db.DB, compIdx int, shardOpts Options, mc *memoScope) (shardOutcome, int64, error) {
	if len(shards) == 0 {
		// No facts for this component's relations: no embedding can exist,
		// so the component is falsified by every repair (components are
		// non-empty queries).
		return shardOutcome{outcome: OutcomeNotCertain, solved: true}, 0, nil
	}
	results := make([]shardOutcome, len(shards))
	pending := make([]int, 0, len(shards))
	if mc != nil {
		for i := range shards {
			if o, ok := mc.memo.Get(mc.fps[i]); ok {
				results[i] = shardOutcome{outcome: o, solved: true}
				mc.rep.ShardsReused++
				if o == OutcomeCertain {
					// Disjunction short-circuit straight from the memo.
					return shardOutcome{outcome: OutcomeCertain, solved: true}, 0, nil
				}
				continue
			}
			pending = append(pending, i)
		}
	} else {
		for i := range shards {
			pending = append(pending, i)
		}
	}
	fanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	_ = shard.ForEach(fanCtx, len(pending), func(k int) {
		i := pending[k]
		sctx, sp := obs.StartSpan(fanCtx, "shard/solve")
		sp.SetInt("component", int64(compIdx))
		sp.SetInt("shard", int64(i))
		sp.SetInt("facts", int64(shards[i].Len()))
		v, err := pj.SolveCtx(sctx, shards[i], shardOpts)
		if err != nil {
			results[i] = shardOutcome{err: err, solved: true}
			sp.SetAttr("error", err.Error())
			sp.End()
			cancel()
			return
		}
		out := shardOutcome{outcome: v.Outcome, solved: true}
		if v.Outcome == OutcomeUnknown {
			out.err = v.Err
		}
		if v.Evidence != nil {
			out.steps = v.Evidence.Steps
		}
		results[i] = out
		sp.SetAttr("outcome", outcomeCodes[v.Outcome])
		sp.End()
		obs.Default.Counter(metricShardSolves, obs.L{K: "outcome", V: outcomeCodes[v.Outcome]}).Inc()
		if v.Outcome == OutcomeCertain {
			cancel() // disjunction short-circuit: the component is certain
		}
	})
	if mc != nil {
		// Account and memoize after the fan-out, on one goroutine: the
		// report is not written concurrently, and only conclusive,
		// error-free outcomes enter the memo.
		for _, i := range pending {
			r := results[i]
			if !r.solved {
				continue
			}
			mc.rep.ShardsRecomputed++
			if r.err == nil && (r.outcome == OutcomeCertain || r.outcome == OutcomeNotCertain) {
				mc.memo.Put(mc.fps[i], r.outcome, mc.blocks[i])
			}
		}
	}

	comp := shardOutcome{outcome: OutcomeNotCertain, solved: true}
	var steps int64
	sawGap := false
	for _, r := range results {
		steps += r.steps
		if !r.solved {
			sawGap = true
			continue
		}
		if r.err != nil && r.outcome != OutcomeUnknown {
			return shardOutcome{}, steps, r.err
		}
		switch r.outcome {
		case OutcomeCertain:
			return shardOutcome{outcome: OutcomeCertain, solved: true}, steps, nil
		case OutcomeUnknown:
			comp.outcome = OutcomeUnknown
			if comp.err == nil {
				comp.err = r.err
			}
		}
	}
	if sawGap {
		// Shards were skipped (deadline or caller cancellation) and none of
		// the solved ones was certain: the disjunction is undetermined.
		comp.outcome = OutcomeUnknown
		if comp.err == nil {
			comp.err = ctx.Err()
		}
	}
	return comp, steps, nil
}
