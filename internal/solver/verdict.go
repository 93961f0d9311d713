package solver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/prob"
)

// Outcome is a three-valued CERTAINTY(q) decision: governed solving may be
// cut off by a deadline or budget before the exact answer is known.
type Outcome int

const (
	// OutcomeCertain: q holds in every repair.
	OutcomeCertain Outcome = iota
	// OutcomeNotCertain: some repair falsifies q.
	OutcomeNotCertain
	// OutcomeUnknown: the search was cut off; see Verdict.Err and
	// Verdict.Evidence for the cause and the partial evidence.
	OutcomeUnknown
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeCertain:
		return "certain"
	case OutcomeNotCertain:
		return "not certain"
	case OutcomeUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Evidence carries the partial progress of a governed solve that was cut
// off, plus the results of the graceful-degradation sampling pass.
type Evidence struct {
	// Steps is the number of governor steps (search nodes) executed.
	Steps int64 `json:"steps"`
	// TotalBlocks is the number of relevant blocks in the falsifying
	// search space (0 when the cutoff happened outside that search).
	TotalBlocks int `json:"total_blocks,omitempty"`
	// BestDepth is the largest number of blocks the falsifying search ever
	// had simultaneously fixed without satisfying q.
	BestDepth int `json:"best_depth,omitempty"`
	// BestCandidate is the partial selection at BestDepth — the best
	// falsifying candidate found before the cutoff.
	BestCandidate []db.Fact `json:"best_candidate,omitempty"`
	// Samples is the number of uniform repairs drawn by the degradation
	// sampler; 0 when sampling was disabled or did not run.
	Samples int `json:"samples,omitempty"`
	// Estimate is the sampled fraction of repairs satisfying q (valid when
	// Samples > 0). An estimate near 1 is evidence for certainty; exactly
	// 1 over many samples makes a falsifying repair unlikely but does not
	// exclude it.
	Estimate float64 `json:"estimate,omitempty"`
	// FalsifyingSample, when non-nil, is a sampled repair falsifying q — a
	// definitive witness that the instance is not certain even though the
	// exact search was cut off.
	FalsifyingSample *db.DB `json:"falsifying_sample,omitempty"`
}

// Verdict is the result of a governed solve. When Outcome is
// OutcomeUnknown, Err holds the cutoff cause (context.DeadlineExceeded,
// context.Canceled, govern.ErrBudget, or an injected fault) and Evidence
// the partial progress; Result.Certain is meaningless then, but
// Result.Classification and Result.Method still report what was attempted.
type Verdict struct {
	Outcome  Outcome
	Result   Result
	Err      error
	Evidence *Evidence
}

// Options bounds a governed solve. The zero value imposes no limits, so
// SolveCtx(ctx, q, d, Options{}) is Solve plus cancellation via ctx and
// panic containment.
type Options struct {
	// Budget caps the total number of search steps; 0 means unlimited.
	Budget int64
	// Timeout bounds wall-clock time; 0 means no deadline.
	Timeout time.Duration
	// Fault is the governor's fault-injection hook (testing); nil disables.
	Fault func(step int64) error
	// DegradeSamples caps the uniform repair samples drawn after a cutoff
	// on the exponential path; 0 means the default (1024), negative
	// disables the degradation sampling entirely.
	DegradeSamples int
	// SampleSeed seeds the degradation sampler (deterministic per seed).
	SampleSeed int64
	// SampleTimeout bounds the wall-clock time of the degradation
	// sampling pass; 0 means the default (250ms).
	SampleTimeout time.Duration
}

// SolveCtx is the resource-governed Solve: it dispatches exactly like
// Solve, but every decision procedure runs under a Governor enforcing
// ctx's cancellation plus the step budget and deadline of opts, and any
// panic escaping the stack (malformed inputs deep in formula evaluation,
// say) is converted into an error rather than crashing the process.
//
// On budget or deadline exhaustion in the exponential falsifying-repair
// search, SolveCtx degrades gracefully instead of failing: it returns an
// OutcomeUnknown verdict carrying the search's partial evidence and a
// Monte-Carlo estimate of the repair-satisfaction frequency from a bounded
// sampling pass (Section 7's uniform-repair semantics). If that sampling
// pass happens to draw a repair falsifying q, the verdict is a definitive
// OutcomeNotCertain with the sampled repair as witness. Cutoffs on
// polynomial paths — only possible under very tight budgets — yield an
// OutcomeUnknown verdict without a sampling pass.
//
// The query is compiled into a Plan inside the trace's classify span, then
// executed exactly as Plan.SolveCtx executes it.
func SolveCtx(ctx context.Context, q cq.Query, d *db.DB, opts Options) (Verdict, error) {
	ctx, root := obs.StartSpan(ctx, "solve")
	_, csp := obs.StartSpan(ctx, "classify")
	var p *Plan
	err := govern.Safe(func() error {
		var innerErr error
		p, innerErr = CompilePlan(q)
		return innerErr
	})
	csp.End()
	if err != nil {
		endSolveSpan(root, 0, Verdict{}, err)
		return Verdict{}, err
	}
	return p.solveUnder(ctx, root, d, opts)
}

// solveUnder is the governed runner of SolveCtx and Plan.SolveCtx: it
// installs the governor, executes the plan with panic containment, and
// finishes the caller's root span.
func (p *Plan) solveUnder(ctx context.Context, root *obs.Span, d *db.DB, opts Options) (Verdict, error) {
	g := govern.New(ctx, govern.Options{Budget: opts.Budget, Timeout: opts.Timeout, Fault: opts.Fault})
	defer g.Close()
	gctx := g.Attach()
	var v Verdict
	err := govern.Safe(func() error {
		var innerErr error
		v, innerErr = p.run(gctx, g, d, opts)
		return innerErr
	})
	endSolveSpan(root, g.Steps(), v, err)
	if err != nil {
		return Verdict{}, err
	}
	return v, nil
}

// endSolveSpan finishes a root solve span with the class, method, outcome,
// and the governor's total step count as attributes. All calls are no-ops
// when tracing is off (root is nil).
func endSolveSpan(root *obs.Span, steps int64, v Verdict, err error) {
	if root == nil {
		return
	}
	if err == nil {
		root.SetAttr("class", v.Result.Classification.Class.Code())
		root.SetAttr("method", methodCodes[v.Result.Method])
		root.SetAttr("outcome", outcomeCodes[v.Outcome])
	} else {
		root.SetAttr("error", err.Error())
	}
	root.SetInt("steps", steps)
	root.End()
}

// run executes the plan on d under governor g: the projection
// simplification's database rewrite when the plan carries one, then the
// method's decision procedure on the exec-stage instance.
func (p *Plan) run(ctx context.Context, g *govern.Governor, d *db.DB, opts Options) (Verdict, error) {
	if p.rewriteDB == nil {
		return p.dispatch(ctx, g, d, opts)
	}
	d2, err := p.rewriteDB(d)
	if err != nil {
		return Verdict{}, err
	}
	v, err := p.dispatch(ctx, g, d2, opts)
	if err != nil {
		return Verdict{}, err
	}
	v.Result.Classification = p.cls
	v.Result.Simplified = p.simplified
	v.Result.SimplifiedClass = p.execCls.Class
	return v, nil
}

// dispatch runs the plan's decision procedure on the exec-stage instance
// (p.execQ, d) over the precompiled artifacts: the FO program, the safe
// rewriting.
func (p *Plan) dispatch(ctx context.Context, g *govern.Governor, d *db.DB, opts Options) (Verdict, error) {
	q, cls := p.execQ, p.execCls
	res := Result{Classification: cls, SimplifiedClass: cls.Class, Method: p.Method}
	ectx, esp := obs.StartSpan(ctx, "eval/"+methodCodes[p.Method])
	var certain bool
	var err error
	switch p.Method {
	case MethodSafeRewriting:
		// Cyclic hypergraph but safe: evaluate the Theorem 6 rewriting.
		certain, err = p.safeProg.Eval(d)
	case MethodFO:
		certain, err = p.foProg.CertainCtx(ectx, q, d)
	case MethodTerminal:
		certain, err = CertainTerminalCtx(ectx, q, d)
	case MethodACk:
		certain, err = CertainACkCtx(ectx, q, cls.Shape, d)
	case MethodCk:
		certain, err = CertainCkCtx(ectx, q, cls.Shape, d)
	default:
		var found bool
		var sev searchEvidence
		_, found, sev, err = falsifyingRepairGov(govern.From(ectx), q, d)
		if err != nil && g.Err() != nil {
			// Governed cutoff on the exponential path: degrade to sampling.
			endEvalSpan(esp, g)
			return degradedVerdict(ctx, g, q, d, res, sev, opts), nil
		}
		certain = !found
	}
	endEvalSpan(esp, g)
	if err != nil {
		if g.Err() != nil {
			// Governed cutoff on a polynomial or rewriting path.
			return Verdict{
				Outcome:  OutcomeUnknown,
				Result:   res,
				Err:      g.Err(),
				Evidence: &Evidence{Steps: g.Steps()},
			}, nil
		}
		return Verdict{}, err
	}
	res.Certain = certain
	out := OutcomeNotCertain
	if certain {
		out = OutcomeCertain
	}
	return Verdict{Outcome: out, Result: res}, nil
}

// endEvalSpan finishes an evaluation-phase span, attaching the governor's
// step count so traces show where the budget went. No-op when tracing is
// off.
func endEvalSpan(sp *obs.Span, g *govern.Governor) {
	sp.SetInt("steps", g.Steps())
	sp.End()
}

// degradedVerdict builds the OutcomeUnknown verdict for a cut-off
// exponential search: partial search evidence plus a bounded Monte-Carlo
// estimate of the repair-satisfaction frequency. The sampling pass runs
// under its own small governor (the parent's is already tripped, so ctx's
// cancellation is stripped while its values — the tracer among them —
// survive), and it terminates promptly even after a SIGINT or deadline.
func degradedVerdict(ctx context.Context, g *govern.Governor, q cq.Query, d *db.DB, res Result, sev searchEvidence, opts Options) Verdict {
	ev := &Evidence{
		Steps:         g.Steps(),
		TotalBlocks:   sev.totalBlocks,
		BestDepth:     sev.bestDepth,
		BestCandidate: sev.bestChosen,
	}
	v := Verdict{Outcome: OutcomeUnknown, Result: res, Err: g.Err(), Evidence: ev}
	sampleInto(context.WithoutCancel(ctx), &v, q, d, opts)
	return v
}

// sampleInto runs the bounded Monte-Carlo degradation pass and folds its
// results into v's evidence. A sampled falsifying repair is a conclusive
// one-sided witness, so it upgrades the verdict to OutcomeNotCertain and
// clears the cutoff error. The pass runs under its own small governor
// derived from ctx, so it terminates promptly even when the caller's
// governor has already tripped (pass context.Background then).
func sampleInto(ctx context.Context, v *Verdict, q cq.Query, d *db.DB, opts Options) {
	samples := opts.DegradeSamples
	if samples == 0 {
		samples = 1024
	}
	if samples < 0 {
		return
	}
	timeout := opts.SampleTimeout
	if timeout <= 0 {
		timeout = 250 * time.Millisecond
	}
	ctx, sp := obs.StartSpan(ctx, "degrade/sample")
	sg := govern.New(ctx, govern.Options{Timeout: timeout})
	defer sg.Close()
	est, drawn, falsifier, _ := prob.EstimateSatisfactionCtx(sg.Attach(), q, d, samples, opts.SampleSeed)
	sp.SetInt("samples", int64(drawn))
	sp.End()
	v.Evidence.Samples = drawn
	v.Evidence.Estimate = est
	if falsifier != nil {
		v.Evidence.FalsifyingSample = falsifier
		v.Outcome = OutcomeNotCertain
		v.Result.Certain = false
		v.Err = nil
	}
}

// ErrExactSkipped is the Verdict.Err of a solve that deliberately skipped
// the exact decision procedure — a server whose circuit breaker is open
// short-circuits hard queries straight to the Monte-Carlo degraded path.
var ErrExactSkipped = errors.New("solver: exact search skipped (degraded mode)")

// Degraded answers a CERTAINTY(q) request with the bounded Monte-Carlo
// degradation pass only, skipping the exact decision procedure entirely.
// It is the fast fallback a resilient server uses when repeated cutoffs
// show the exact coNP-path search cannot finish within policy: the verdict
// is OutcomeUnknown with Err = ErrExactSkipped and a sampled
// repair-satisfaction estimate — unless a sampled repair falsifies q, which
// is a conclusive OutcomeNotCertain witness. The classification is still
// exact (it is polynomial in the query alone).
func Degraded(ctx context.Context, q cq.Query, d *db.DB, opts Options) (Verdict, error) {
	cls, err := core.Classify(q)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{
		Outcome:  OutcomeUnknown,
		Result:   Result{Classification: cls, SimplifiedClass: cls.Class, Method: MethodFalsifying},
		Err:      ErrExactSkipped,
		Evidence: &Evidence{},
	}
	err = govern.Safe(func() error {
		sampleInto(ctx, &v, q, d, opts)
		return nil
	})
	if err != nil {
		return Verdict{}, err
	}
	return v, nil
}
