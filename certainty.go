// Package certainty decides certain answers to conjunctive queries on
// uncertain databases — relational databases whose primary keys need not
// hold — implementing Wijsen, "Charting the Tractability Frontier of
// Certain Conjunctive Query Answering" (PODS 2013, arXiv:1301.1003).
//
// An uncertain database groups key-equal facts into blocks; a repair picks
// exactly one fact per block. CERTAINTY(q) asks whether a Boolean
// conjunctive query q holds in every repair. For acyclic self-join-free
// queries the package classifies CERTAINTY(q) through the attack graph —
// first-order expressible, polynomial-time, or coNP-complete — and solves
// instances with the algorithm the classification licenses:
//
//	q, _ := certainty.ParseQuery("C(x, y | 'Rome'), R(x | 'A')")
//	d, _ := certainty.ParseDB("C(PODS, 2016 | Rome)\nC(PODS, 2016 | Paris)\nR(PODS | A)")
//	res, _ := certainty.Solve(q, d)      // res.Certain, res.Method
//	cls, _ := certainty.Classify(q)      // cls.Class, cls.Reason
//	phi, _ := certainty.RewriteFO(q)     // certain first-order rewriting
//	sql, _ := certainty.RewriteSQL(q)    // the same rewriting as SQL
//
// Section 7 of the paper (probabilistic databases) is covered by IsSafe,
// Probability, Uniform and the counting functions.
package certainty

import (
	"context"
	"math/big"

	"github.com/cqa-go/certainty/internal/answers"
	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/jointree"
	"github.com/cqa-go/certainty/internal/prob"
	"github.com/cqa-go/certainty/internal/reduction"
	"github.com/cqa-go/certainty/internal/solver"
)

// Core vocabulary. The aliases expose the internal implementations as the
// public API; constructing and inspecting queries, databases and results
// happens through these names.
type (
	// Term is a variable or constant in an atom.
	Term = cq.Term
	// Atom is a relational atom R(x̄ | ȳ) with the primary key left of
	// the bar.
	Atom = cq.Atom
	// Query is a Boolean conjunctive query (a set of atoms).
	Query = cq.Query
	// Valuation maps variables to constants.
	Valuation = cq.Valuation
	// VarSet is a set of variable names.
	VarSet = cq.VarSet
	// Fact is a ground atom stored in a database.
	Fact = db.Fact
	// DB is an uncertain database.
	DB = db.DB
	// AttackGraph is the attack graph of an acyclic self-join-free query.
	AttackGraph = core.AttackGraph
	// Class is the complexity classification of CERTAINTY(q).
	Class = core.Class
	// Classification carries the class, the witnessing attack graph and a
	// human-readable reason.
	Classification = core.Classification
	// Result is a solved CERTAINTY(q) instance with its method.
	Result = solver.Result
	// Method identifies the decision procedure used.
	Method = solver.Method
	// Formula is a first-order formula (certain rewritings).
	Formula = fo.Formula
	// ProbDB is a block-independent-disjoint probabilistic database.
	ProbDB = prob.ProbDB
	// Theorem2Reduction is the executable reduction of Theorem 2.
	Theorem2Reduction = reduction.Theorem2
	// Answer is a result tuple for a query with free variables.
	Answer = answers.Answer
	// Answers carries the certain and possible answers of a non-Boolean
	// query.
	Answers = answers.Result
)

// Complexity classes of CERTAINTY(q) (see Class).
const (
	ClassFO                   = core.ClassFO
	ClassPTimeTerminal        = core.ClassPTimeTerminal
	ClassPTimeACk             = core.ClassPTimeACk
	ClassPTimeCk              = core.ClassPTimeCk
	ClassCoNPComplete         = core.ClassCoNPComplete
	ClassOpenConjecturedPTime = core.ClassOpenConjecturedPTime
)

// Decision methods (see Method).
const (
	MethodFO            = solver.MethodFO
	MethodTerminal      = solver.MethodTerminal
	MethodACk           = solver.MethodACk
	MethodCk            = solver.MethodCk
	MethodFalsifying    = solver.MethodFalsifying
	MethodBruteForce    = solver.MethodBruteForce
	MethodSafeRewriting = solver.MethodSafeRewriting
)

// Var returns a variable term.
func Var(name string) Term { return cq.Var(name) }

// Const returns a constant term.
func Const(value string) Term { return cq.Const(value) }

// NewAtom builds an atom whose first keyLen arguments form the primary key.
func NewAtom(rel string, keyLen int, args ...Term) Atom { return cq.NewAtom(rel, keyLen, args...) }

// NewQuery builds a Boolean conjunctive query.
func NewQuery(atoms ...Atom) Query { return cq.NewQuery(atoms...) }

// NewFact builds a database fact.
func NewFact(rel string, keyLen int, args ...string) Fact { return db.NewFact(rel, keyLen, args...) }

// NewDB returns an empty uncertain database.
func NewDB() *DB { return db.New() }

// ParseQuery parses the textual query language, e.g.
// "R(x, y | z), S(y | x)" with primary keys left of the bar.
func ParseQuery(input string) (Query, error) { return cq.ParseQuery(input) }

// MustParseQuery is ParseQuery panicking on error.
func MustParseQuery(input string) Query { return cq.MustParseQuery(input) }

// ParseDB parses a database in the same syntax with constants only; bare
// identifiers denote constants.
func ParseDB(input string) (*DB, error) { return db.Parse(input) }

// MustParseDB is ParseDB panicking on error.
func MustParseDB(input string) *DB { return db.MustParse(input) }

// IsQueryAcyclic reports whether the query has a join tree.
func IsQueryAcyclic(q Query) bool { return jointree.IsAcyclic(q) }

// AttackGraphOf computes the attack graph of an acyclic self-join-free
// query (Definition 3 of the paper).
func AttackGraphOf(q Query) (*AttackGraph, error) {
	return core.BuildAttackGraph(q, jointree.TieBreakLex)
}

// Classify runs the paper's effective method: it determines the complexity
// class of CERTAINTY(q) with the witnessing theorem.
func Classify(q Query) (Classification, error) { return core.Classify(q) }

// Solve decides whether every repair of d satisfies q, dispatching on the
// classification (polynomial algorithms where the paper provides them, an
// exact exponential search otherwise).
func Solve(q Query, d *DB) (Result, error) {
	v, err := solver.SolveCtx(context.Background(), q, d, solver.Options{})
	return v.Result, err
}

// Governed solving. SolveCtx is Solve under resource governance: the
// context cancels it (Ctrl-C, deadlines), SolveOptions bounds it (step
// budget, wall-clock timeout) and may shard it, panics deep in evaluation
// come back as errors, and a cut-off solve on a coNP-hard instance
// degrades to an OutcomeUnknown verdict carrying partial search evidence
// and a sampled repair-satisfaction estimate instead of failing.
type (
	// Verdict is the three-valued result of a governed solve.
	Verdict = solver.Verdict
	// VerdictOutcome is certain, not certain, or unknown (cut off).
	VerdictOutcome = solver.Outcome
	// VerdictEvidence is the partial progress attached to a cut-off solve.
	VerdictEvidence = solver.Evidence
	// SolveOptions bounds and schedules a governed solve; the zero value
	// imposes no limits beyond the context itself and solves
	// monolithically.
	SolveOptions = solver.Options
)

// Outcomes of a governed solve (see Verdict).
const (
	OutcomeCertain    = solver.OutcomeCertain
	OutcomeNotCertain = solver.OutcomeNotCertain
	OutcomeUnknown    = solver.OutcomeUnknown
)

// SolveCtx decides certainty under ctx plus the limits and scheduling in
// opts; see Verdict for how cutoffs degrade gracefully. Conclusive verdicts
// are identical across every option setting.
func SolveCtx(ctx context.Context, q Query, d *DB, opts SolveOptions) (Verdict, error) {
	return solver.SolveCtx(ctx, q, d, opts)
}

// Batch solving.
type (
	// BatchInstance is one (query, database) instance of a batch.
	BatchInstance = solver.BatchItem
	// BatchVerdict is one batch instance's outcome.
	BatchVerdict = solver.BatchResult
)

// SolveBatch decides many instances at once, amortizing classification and
// plan compilation across items that share a canonical query and fanning
// the work out on the bounded worker pool; opts applies to every item.
// Each call compiles its plans afresh, for the canonical form of each
// distinct query. Results are indexed in item order.
func SolveBatch(ctx context.Context, items []BatchInstance, opts SolveOptions) []BatchVerdict {
	return solver.SolveBatch(ctx, items, opts, solver.NewPlanCache(0, nil), nil)
}

// CertainBruteForce decides certainty by enumerating every repair
// (exponential ground truth), honoring ctx (cancellation, or a
// budget/deadline governor attached by SolveCtx-style callers).
func CertainBruteForce(ctx context.Context, q Query, d *DB) (bool, error) {
	return solver.BruteForceCtx(ctx, q, d)
}

// CertainAnswers lifts certainty to queries with free variables: it
// returns the tuples ā (over the listed variables, in order) for which
// q[x̄↦ā] holds in every repair, along with the possible answers. Each
// candidate's solve runs under ctx and opts; a candidate cut off by them
// fails the call with the cutoff error.
func CertainAnswers(ctx context.Context, q Query, free []string, d *DB, opts SolveOptions) (*Answers, error) {
	return answers.Certain(ctx, q, free, d, opts)
}

// PossibleAnswers returns the tuples for which q[x̄↦ā] holds in at least
// one repair (equivalently, in d itself, for self-join-free queries).
func PossibleAnswers(q Query, free []string, d *DB) ([]Answer, error) {
	return answers.Possible(q, free, d)
}

// FalsifyingRepair searches for a repair falsifying q, with pruning,
// honoring ctx; on cancellation the partial search is abandoned and ctx's
// error returned.
func FalsifyingRepair(ctx context.Context, q Query, d *DB) ([]Fact, bool, error) {
	return solver.FalsifyingRepair(ctx, q, d)
}

// Eval reports whether d satisfies q (ordinary, non-certain semantics).
func Eval(q Query, d *DB) bool { return engine.Eval(q, d) }

// Embeddings returns all valuations θ with θ(q) ⊆ d.
func Embeddings(q Query, d *DB) []Valuation { return engine.Embeddings(q, d) }

// Purify returns a database purified relative to q (every fact participates
// in an embedding) preserving certainty (Lemma 1 of the paper).
func Purify(q Query, d *DB) *DB { return engine.Purify(q, d) }

// RewriteFO constructs a certain first-order rewriting of q; it exists iff
// the attack graph of q is acyclic (Theorem 1).
func RewriteFO(q Query) (Formula, error) { return fo.RewriteAcyclic(q) }

// RewriteSQL renders the certain first-order rewriting of an FO-class query
// as one self-contained SQL statement: the program Plan.EmitSQL emits and
// POST /v1/compile serves (a table per relation with columns c1..cn; the
// statement returns one boolean column `certain`).
func RewriteSQL(q Query) (string, error) {
	p, err := solver.CompilePlan(q)
	if err != nil {
		return "", err
	}
	prog, err := p.EmitSQL()
	return prog.Text, err
}

// EvalFormula evaluates a first-order sentence on a database with
// active-domain quantifier semantics.
func EvalFormula(f Formula, d *DB) (bool, error) { return fo.Eval(f, d) }

// EvalFormulaWith evaluates a formula whose free variables are bound by
// env.
func EvalFormulaWith(f Formula, d *DB, env Valuation) (bool, error) {
	return fo.EvalWith(f, d, env)
}

// CompiledFormula is a formula compiled to a closure tree for fast
// repeated evaluation.
type CompiledFormula = fo.Compiled

// CompileFormula compiles a formula; repeated evaluation through the
// result is several times faster than EvalFormula.
func CompileFormula(f Formula) (*CompiledFormula, error) { return fo.Compile(f) }

// RewriteFOFree constructs a certain rewriting with free variables: φ(x̄)
// holds of ā iff q[x̄↦ā] is certain. It exists iff freezing the free
// variables leaves an acyclic attack graph — which can hold even when the
// Boolean problem is not FO (freezing x1 of C(2), for instance).
func RewriteFOFree(q Query, free []string) (Formula, error) {
	return fo.RewriteAcyclicFree(q, free)
}

// RewriteSafe constructs the Theorem 6 certain rewriting for safe queries;
// unlike RewriteFO it needs no join tree, covering safe queries with cyclic
// hypergraphs.
func RewriteSafe(q Query) (Formula, error) { return fo.RewriteSafe(q) }

// IsSafe runs the Dalvi–Ré–Suciu safety test (Function IsSafe of the
// paper); safe queries have PROBABILITY(q) in FP, unsafe ones are ♯P-hard.
func IsSafe(q Query) bool { return prob.IsSafe(q) }

// NewProbDB returns an empty BID probabilistic database.
func NewProbDB() *ProbDB { return prob.New() }

// Uniform converts an uncertain database to the uniform-repairs BID
// probabilistic database.
func Uniform(d *DB) *ProbDB { return prob.Uniform(d) }

// Probability evaluates Pr(q) on a BID probabilistic database with the
// polynomial safe plan; it fails on unsafe queries.
func Probability(q Query, p *ProbDB) (*big.Rat, error) { return prob.Probability(q, p) }

// ProbabilityByWorlds evaluates Pr(q) exactly by possible-world
// enumeration (exponential; works for every query).
func ProbabilityByWorlds(q Query, p *ProbDB) *big.Rat { return prob.ProbabilityByWorlds(q, p) }

// CountSatisfyingRepairs solves ♯CERTAINTY(q) by enumeration.
func CountSatisfyingRepairs(q Query, d *DB) *big.Int { return prob.CountSatisfyingRepairs(q, d) }

// CountSatisfyingSharded solves ♯CERTAINTY(q) through the shard
// decomposition — exact, same number as CountSatisfyingRepairs, but the
// enumeration splits along independent sub-instances solved in parallel
// (∏ᵢNᵢ − ∏ᵢ(Nᵢ−sᵢ) per connected component, products across components).
func CountSatisfyingSharded(q Query, d *DB) *big.Int {
	return prob.CountSatisfyingSharded(q, d)
}

// UniformProbabilitySharded computes Pr(q) under uniform repair choice
// through the shard decomposition (1 − ∏ᵢ(1−pᵢ) per component, products
// across components); exact, same rational as world enumeration.
func UniformProbabilitySharded(q Query, d *DB) *big.Rat {
	return prob.UniformProbabilitySharded(q, d)
}

// CountViaUniform solves ♯CERTAINTY(q) through the uniform BID safe plan
// (polynomial for safe queries).
func CountViaUniform(q Query, d *DB) (*big.Int, error) { return prob.CountViaUniform(q, d) }

// EstimateCertain tests certainty statistically by sampling uniform
// repairs; a false answer comes with a witnessing repair, a true answer is
// evidence only.
func EstimateCertain(q Query, d *DB, samples int, seed int64) (bool, *DB) {
	return prob.EstimateCertain(q, d, samples, seed)
}

// NewTheorem2Reduction prepares the Theorem 2 reduction from
// CERTAINTY(q0) to CERTAINTY(q) for a query q with a strong attack cycle.
func NewTheorem2Reduction(q Query) (*Theorem2Reduction, error) { return reduction.NewTheorem2(q) }

// CompleteAllKey applies the Lemma 9 completion: facts for every
// active-domain tuple are added to the all-key relations of q missing from
// qPrime.
func CompleteAllKey(q, qPrime Query, d *DB) (*DB, error) { return reduction.Lemma9(q, qPrime, d) }

// Paper query families.

// Q0 is {R0(x | y), S0(y, z | x)}, the coNP-complete seed of Theorem 2.
func Q0() Query { return cq.Q0() }

// Q1 is the running example of Fig. 2 (Examples 2–4).
func Q1() Query { return cq.Q1() }

// Ck is the cycle query C(k) of Definition 8.
func Ck(k int) Query { return cq.Ck(k) }

// ACk is the acyclic cycle query AC(k) of Definition 8.
func ACk(k int) Query { return cq.ACk(k) }

// TerminalCyclesQuery is the Fig. 4-style query whose attack cycles are all
// weak and terminal.
func TerminalCyclesQuery() Query { return cq.TerminalCyclesQuery() }

// TerminalPairsQuery generalizes the Fig. 4 query to n chained weak
// terminal 2-cycles, optionally with an unattacked root atom.
func TerminalPairsQuery(n int, withRoot bool) Query { return gen.TerminalPairsQuery(n, withRoot) }

// OpenCaseQuery is an acyclic query in the class the paper leaves open:
// weak nonterminal attack cycle, no strong cycle, not AC(k) (Section 6.2,
// Conjecture 1).
func OpenCaseQuery() Query { return gen.OpenCaseQuery() }

// ConferenceQuery is the introduction's query over the Fig. 1 schema.
func ConferenceQuery() Query { return cq.ConferenceQuery() }

// ConferenceDB is the Fig. 1 uncertain database.
func ConferenceDB() *DB { return gen.ConferenceDB() }

// Figure6DB is the Fig. 6 database (purified relative to AC(3)).
func Figure6DB() *DB { return gen.Figure6DB() }

// AnswerProbability pairs an answer tuple with its exact probability under
// uniform repair semantics.
type AnswerProbability = answers.AnswerProbability

// AnswersWithProbabilities returns every possible answer with its exact
// uniform-repair probability, sorted by probability descending; certain
// answers are exactly the probability-1 entries.
func AnswersWithProbabilities(q Query, free []string, d *DB) ([]AnswerProbability, error) {
	return answers.WithProbabilities(q, free, d)
}

// ClassificationCache memoizes classifications keyed by the canonical form
// of the query; safe for concurrent use.
type ClassificationCache = core.Cache

// NewClassificationCache returns an empty classification cache.
func NewClassificationCache() *ClassificationCache { return core.NewCache() }

// CanonicalizeQuery returns the canonical form of a query (atoms sorted,
// variables renamed) plus the variable mapping; isomorphic self-join-free
// queries share a canonical form.
func CanonicalizeQuery(q Query) (Query, map[string]string) { return cq.Canonicalize(q) }

// RandomBID assigns random rational probabilities to an uncertain
// database's facts (each block's mass at most 1); deterministic per seed.
func RandomBID(d *DB, seed int64) *ProbDB { return prob.RandomBID(d, seed) }

// ExplainPlan returns the evaluation order and index usage the engine
// would apply for q on d.
func ExplainPlan(q Query, d *DB) EvaluationPlan { return engine.Explain(q, d) }

// EvaluationPlan is the engine's evaluation plan (atom order, index use).
type EvaluationPlan = engine.Plan

// SelfCheck runs Solve and cross-checks the result against brute-force
// enumeration when the repair space has at most maxRepairs elements; a
// mismatch (a bug) is returned as an error.
func SelfCheck(q Query, d *DB, maxRepairs int64) (Result, error) {
	return solver.SelfCheck(q, d, maxRepairs)
}
