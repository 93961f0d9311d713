// Command certsolve decides CERTAINTY(q): whether every repair of an
// uncertain database satisfies a Boolean conjunctive query.
//
// Usage:
//
//	certsolve -q 'C(x, y | "Rome"), R(x | "A")' -d db.txt
//	certsolve -qf query.cq -d db.txt -method auto -witness
//
// The database file holds one fact per line, e.g. C(PODS, 2016 | Rome).
// Methods: auto (classifier dispatch, default), brute (repair
// enumeration), falsify (pruned search). With -witness, a falsifying
// repair is printed when the instance is not certain. With -count, the
// number of satisfying repairs (♯CERTAINTY) is printed too.
//
// Solving is resource-governed: -timeout bounds wall-clock time, -budget
// caps search steps, and Ctrl-C (SIGINT) cancels the search. With
// -sharded the instance is partitioned into independent sub-instances
// (connected components of the fact co-occurrence graph) solved in
// parallel; the verdict is identical to the single-shard solve. A solve cut
// off on a coNP-hard instance does not just die — it reports an "unknown"
// verdict with the partial search evidence and a sampled estimate of the
// fraction of repairs satisfying the query.
//
// With -trace, the solver records a span per phase (classification,
// simplification, the method's evaluation, degradation sampling) and the
// span tree is printed with per-phase durations after the verdict. Tracing
// works with the local auto method only.
//
// With -remote URL the solve runs on a certd server (see cmd/certd)
// instead of in-process: the request is retried with backoff on shedding,
// and the remote three-valued verdict prints exactly as a local one would.
// Omitting -d with -remote solves against the server's durable hosted
// database, and -db-insert/-db-delete/-db-info (with -if-version for
// compare-and-set) mutate and inspect it over /v1/db.
//
// With -emit sql|datalog the query is not solved: its consistent
// first-order rewriting is compiled to an executable backend program and
// printed to stdout (comments carry the schema convention). Local by
// default; with -remote the program comes from the server's /v1/compile.
// Non-FO queries fail with their classification — fall back to a solve.
// The inverse direction, -eval-sql FILE and -eval-datalog FILE, evaluates
// a previously emitted program against the -d database with the built-in
// reference evaluators and prints the same certain verdict a solve would.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"strings"

	"github.com/cqa-go/certainty/internal/answers"
	"github.com/cqa-go/certainty/internal/client"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/emit"
	"github.com/cqa-go/certainty/internal/emit/sqleval"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/prob"
	"github.com/cqa-go/certainty/internal/server"
	"github.com/cqa-go/certainty/internal/solver"
)

func main() {
	queryText := flag.String("q", "", "query text")
	queryFile := flag.String("qf", "", "query file")
	dbFile := flag.String("d", "", "database file (one fact per line); '-' for stdin")
	method := flag.String("method", "auto", "decision method: auto, brute, falsify")
	witness := flag.Bool("witness", false, "print a falsifying repair when not certain")
	count := flag.Bool("count", false, "also print the number of satisfying repairs")
	free := flag.String("answers", "", "comma-separated free variables: compute certain/possible answers instead of the Boolean decision")
	timeout := flag.Duration("timeout", 0, "abort the search after this duration (0 = no limit)")
	budget := flag.Int64("budget", 0, "abort the search after this many search steps (0 = no limit)")
	sharded := flag.Bool("sharded", false, "solve independent sub-instances in parallel, one per co-occurrence component (auto method only)")
	remote := flag.String("remote", "", "solve on a certd server at this base URL instead of in-process")
	trace := flag.Bool("trace", false, "print the solver's span tree with per-phase durations (local auto method)")
	dbInsert := flag.String("db-insert", "", "insert facts from this file ('-' for stdin) into the remote hosted database (requires -remote)")
	dbDelete := flag.String("db-delete", "", "delete facts from this file ('-' for stdin) from the remote hosted database (requires -remote)")
	dbInfo := flag.Bool("db-info", false, "print the remote hosted database's version and stats (requires -remote)")
	ifVersion := flag.Int64("if-version", -1, "CAS guard for -db-insert/-db-delete: fail unless the remote database is at this version (-1 = unconditional)")
	emitDialect := flag.String("emit", "", "compile the query's FO rewriting to this dialect (sql, datalog) and print the program instead of solving")
	evalSQL := flag.String("eval-sql", "", "evaluate an emitted SQL program from this file ('-' for stdin) against the -d database")
	evalDatalog := flag.String("eval-datalog", "", "evaluate an emitted Datalog program from this file ('-' for stdin) against the -d database")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *dbInsert != "" || *dbDelete != "" || *dbInfo {
		if err := runRemoteDB(ctx, *remote, *dbInsert, *dbDelete, *dbInfo, *ifVersion); err != nil {
			fmt.Fprintln(os.Stderr, "certsolve:", err)
			os.Exit(1)
		}
		return
	}

	if *evalSQL != "" || *evalDatalog != "" {
		if err := runEval(*evalSQL, *evalDatalog, *dbFile); err != nil {
			fmt.Fprintln(os.Stderr, "certsolve:", err)
			os.Exit(1)
		}
		return
	}

	if *emitDialect != "" {
		if err := runEmit(ctx, *emitDialect, *queryText, *queryFile, *remote); err != nil {
			fmt.Fprintln(os.Stderr, "certsolve:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(ctx, *queryText, *queryFile, *dbFile, *method, *witness, *count, *free, *timeout, *budget, *sharded, *remote, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "certsolve:", err)
		os.Exit(1)
	}
}

// runRemoteDB is the mutation/metadata mode: no query, no solve — just
// the durable /v1/db surface of a certd server.
func runRemoteDB(ctx context.Context, baseURL, insertFile, deleteFile string, info bool, ifVersion int64) error {
	if baseURL == "" {
		return fmt.Errorf("-db-insert, -db-delete, and -db-info require -remote URL")
	}
	if insertFile != "" && deleteFile != "" {
		return fmt.Errorf("use -db-insert or -db-delete, not both (ordering would be ambiguous)")
	}
	cl := client.New(baseURL)

	var cas *uint64
	if ifVersion >= 0 {
		v := uint64(ifVersion)
		cas = &v
	}
	mutFile, op := insertFile, "insert"
	mutate := cl.InsertFacts
	if deleteFile != "" {
		mutFile, op, mutate = deleteFile, "delete", cl.DeleteFacts
	}
	if mutFile != "" {
		var data []byte
		var err error
		if mutFile == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(mutFile)
		}
		if err != nil {
			return err
		}
		resp, err := mutate(ctx, string(data), cas)
		if err != nil {
			var vc *client.VersionConflictError
			if errors.As(err, &vc) {
				return fmt.Errorf("%s rejected: database moved to version %d (you conditioned on %d); re-read with -db-info and retry if your change still applies", op, vc.Have, vc.Want)
			}
			return err
		}
		fmt.Printf("%s: %d facts applied, database now at version %d\n", op, resp.Applied, resp.Version)
		if !info {
			return nil
		}
	}

	resp, err := cl.GetDB(ctx, false)
	if err != nil {
		return err
	}
	fmt.Printf("version: %d\n", resp.Version)
	fmt.Printf("facts: %d in %d blocks\n", resp.NumFacts, resp.NumBlocks)
	fmt.Printf("relations: %v\n", resp.Relations)
	fmt.Printf("digest: %s\n", resp.Digest)
	if resp.ReadOnly {
		fmt.Println("read-only: true  (disk trouble — mutations rejected until a probe heals it)")
	}
	return nil
}

// parseQueryArg resolves -q / -qf into a parsed query.
func parseQueryArg(queryText, queryFile string) (cq.Query, error) {
	switch {
	case queryText != "":
		return cq.ParseQuery(queryText)
	case queryFile != "":
		data, err := os.ReadFile(queryFile)
		if err != nil {
			return cq.Query{}, err
		}
		return cq.ParseQuery(string(data))
	}
	return cq.Query{}, fmt.Errorf("provide -q or -qf")
}

// runEmit compiles the query's FO rewriting to the requested dialect and
// prints the bare program (ready to pipe into a file or a database shell).
// Classification metadata goes to stderr so stdout stays machine-readable.
func runEmit(ctx context.Context, dialect, queryText, queryFile, remote string) error {
	if dialect != emit.DialectSQL && dialect != emit.DialectDatalog {
		return fmt.Errorf("unknown -emit dialect %q (want sql or datalog)", dialect)
	}
	q, err := parseQueryArg(queryText, queryFile)
	if err != nil {
		return err
	}

	if remote != "" {
		resp, err := client.New(remote).Compile(ctx, q.String(), dialect)
		if err != nil {
			var eb *server.ErrorBody
			if errors.As(err, &eb) && eb.Code == server.CodeUnsupported && eb.Class != "" {
				return fmt.Errorf("CERTAINTY(q) is %s: no first-order rewriting to emit; solve instead", eb.Class)
			}
			return err
		}
		fmt.Fprintf(os.Stderr, "class: %s\nmethod: %s  (remote)\n", resp.Class, resp.Method)
		fmt.Print(resp.Program)
		return nil
	}

	p, err := solver.CompilePlan(q)
	if err != nil {
		return err
	}
	var prog emit.Program
	if dialect == emit.DialectSQL {
		prog, err = p.EmitSQL()
	} else {
		prog, err = p.EmitDatalog()
	}
	if err != nil {
		var ne *solver.NotEmittableError
		if errors.As(err, &ne) {
			return fmt.Errorf("CERTAINTY(q) is %s: no first-order rewriting to emit; solve instead", ne.Classification.Class)
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "class: %s\nmethod: %s\n", p.Class, p.Method)
	fmt.Print(prog.Text)
	return nil
}

// runEval evaluates an emitted program against the -d database with the
// reference evaluators and prints the boolean verdict.
func runEval(sqlFile, dlogFile, dbFile string) error {
	if sqlFile != "" && dlogFile != "" {
		return fmt.Errorf("use -eval-sql or -eval-datalog, not both")
	}
	if dbFile == "" {
		return fmt.Errorf("-eval-sql/-eval-datalog require -d database file")
	}
	progFile := sqlFile
	if dlogFile != "" {
		progFile = dlogFile
	}
	if progFile == "-" && dbFile == "-" {
		return fmt.Errorf("the program and the database cannot both come from stdin")
	}
	var prog []byte
	var err error
	if progFile == "-" {
		prog, err = io.ReadAll(os.Stdin)
	} else {
		prog, err = os.ReadFile(progFile)
	}
	if err != nil {
		return err
	}
	var data []byte
	if dbFile == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(dbFile)
	}
	if err != nil {
		return err
	}
	d, err := db.Parse(string(data))
	if err != nil {
		return err
	}
	var certain bool
	if sqlFile != "" {
		certain, err = sqleval.Eval(string(prog), d)
	} else {
		certain, err = emit.EvalDatalog(string(prog), d)
	}
	if err != nil {
		return err
	}
	fmt.Printf("certain: %v\n", certain)
	return nil
}

func run(ctx context.Context, queryText, queryFile, dbFile, method string, witness, count bool, free string, timeout time.Duration, budget int64, sharded bool, remote string, trace bool) error {
	var q cq.Query
	var err error
	switch {
	case queryText != "":
		q, err = cq.ParseQuery(queryText)
	case queryFile != "":
		var data []byte
		data, err = os.ReadFile(queryFile)
		if err == nil {
			q, err = cq.ParseQuery(string(data))
		}
	default:
		return fmt.Errorf("provide -q or -qf")
	}
	if err != nil {
		return err
	}

	if dbFile == "" && remote == "" {
		return fmt.Errorf("provide -d database file (or -remote to solve against a server's hosted database)")
	}
	var data []byte
	var d *db.DB
	if dbFile != "" {
		if dbFile == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(dbFile)
		}
		if err != nil {
			return err
		}
		if d, err = db.Parse(string(data)); err != nil {
			return err
		}
		fmt.Printf("query: %s\n", q)
		fmt.Printf("database: %d facts in %d blocks, %v repairs\n",
			d.Len(), d.NumBlocks(), d.NumRepairs())
	} else {
		// Empty db text: the server solves against its durable hosted
		// database at whatever version is current.
		fmt.Printf("query: %s\n", q)
		fmt.Printf("database: hosted on %s\n", remote)
	}

	if remote != "" {
		if free != "" || count || method != "auto" {
			return fmt.Errorf("-remote supports only the default method (no -answers, -count, or -method)")
		}
		if trace {
			return fmt.Errorf("-trace is local-only (the span tree lives in the serving process)")
		}
		return runRemote(ctx, remote, q, string(data), timeout, budget, witness)
	}

	if free != "" {
		vars := strings.Split(free, ",")
		for i := range vars {
			vars[i] = strings.TrimSpace(vars[i])
		}
		res, err := answers.Certain(ctx, q, vars, d, solver.Options{Budget: budget, Timeout: timeout})
		if err != nil {
			return err
		}
		fmt.Printf("free variables: %v\n", res.Free)
		fmt.Printf("certain answers (%d):\n", len(res.Certain))
		for _, a := range res.Certain {
			fmt.Printf("  %v\n", []string(a))
		}
		fmt.Printf("possible answers (%d):\n", len(res.Possible))
		for _, a := range res.Possible {
			fmt.Printf("  %v\n", []string(a))
		}
		return nil
	}

	if trace && method != "auto" {
		return fmt.Errorf("-trace requires the auto method")
	}
	var tracer *obs.Tracer
	if trace {
		tracer = obs.NewTracer(obs.TracerOptions{})
		ctx = obs.WithTracer(ctx, tracer)
	}

	if sharded && method != "auto" {
		return fmt.Errorf("-sharded requires the auto method")
	}

	var certain bool
	switch method {
	case "auto":
		v, err := solver.SolveCtx(ctx, q, d, solver.Options{Budget: budget, Timeout: timeout, Sharded: sharded})
		if err != nil {
			return err
		}
		if tracer != nil {
			fmt.Println("trace:")
			fmt.Print(obs.FormatTree(tracer.Snapshot()))
		}
		fmt.Printf("class: %s\n", v.Result.Classification.Class)
		fmt.Printf("method: %s\n", v.Result.Method)
		if v.Outcome == solver.OutcomeUnknown {
			printUnknown(v)
			return nil
		}
		if witness && v.Evidence != nil && v.Evidence.FalsifyingSample != nil {
			// The sampler found the witness after the exact search was cut
			// off; print it rather than re-running the search below.
			fmt.Printf("certain: false  (%s)\n", cutoffReason(v.Evidence))
			fmt.Println("falsifying repair (sampled):")
			for _, f := range v.Evidence.FalsifyingSample.Facts() {
				fmt.Printf("  %s\n", f)
			}
			return nil
		}
		certain = v.Result.Certain
	case "brute":
		g := govern.New(ctx, govern.Options{Budget: budget, Timeout: timeout})
		defer g.Close()
		var err error
		certain, err = solver.BruteForceCtx(g.Attach(), q, d)
		if err != nil {
			return fmt.Errorf("search aborted after %d steps: %w", g.Steps(), err)
		}
		fmt.Printf("method: %s\n", solver.MethodBruteForce)
	case "falsify":
		g := govern.New(ctx, govern.Options{Budget: budget, Timeout: timeout})
		defer g.Close()
		var err error
		certain, err = solver.CertainByFalsifying(g.Attach(), q, d)
		if err != nil {
			return fmt.Errorf("search aborted after %d steps: %w", g.Steps(), err)
		}
		fmt.Printf("method: %s\n", solver.MethodFalsifying)
	default:
		return fmt.Errorf("unknown method %q", method)
	}
	fmt.Printf("certain: %v\n", certain)

	if witness && !certain {
		rep, found, err := solver.FalsifyingRepair(ctx, q, d)
		if err != nil {
			return fmt.Errorf("witness search aborted: %w", err)
		}
		if found {
			fmt.Println("falsifying repair:")
			for _, f := range rep {
				fmt.Printf("  %s\n", f)
			}
		}
	}
	if count {
		n := prob.CountSatisfyingRepairs(q, d)
		fmt.Printf("satisfying repairs: %v of %v\n", n, d.NumRepairs())
	}
	return nil
}

// runRemote solves on a certd server and prints the verdict exactly as
// the local path does, plus the service envelope (clamped limits, breaker
// state) when the server reports it.
func runRemote(ctx context.Context, baseURL string, q cq.Query, dbText string, timeout time.Duration, budget int64, witness bool) error {
	cl := client.New(baseURL)
	resp, err := cl.Solve(ctx, server.SolveRequest{
		Query:     q.String(),
		DB:        dbText,
		TimeoutMS: timeout.Milliseconds(),
		Budget:    budget,
	})
	if err != nil {
		return err
	}
	v := resp.Verdict
	fmt.Printf("class: %s\n", v.Result.Classification.Class)
	fmt.Printf("method: %s  (remote, %dms)\n", v.Result.Method, resp.ElapsedMS)
	if resp.DBVersion != nil {
		fmt.Printf("database version: %d\n", *resp.DBVersion)
	}
	if c := resp.Clamped; c != nil {
		fmt.Printf("server clamped limits: budget %d, timeout %dms\n", c.BudgetVal, c.TimeoutMS)
	}
	switch resp.Breaker {
	case server.BreakerOpen:
		fmt.Println("breaker: open — exact search skipped, degraded sampling verdict")
	case server.BreakerProbe:
		fmt.Println("breaker: half-open — this solve was the recovery probe")
	}
	if v.Outcome == solver.OutcomeUnknown {
		printUnknown(v)
		return nil
	}
	if witness && v.Evidence != nil && v.Evidence.FalsifyingSample != nil {
		fmt.Printf("certain: false  (%s)\n", cutoffReason(v.Evidence))
		fmt.Println("falsifying repair (sampled):")
		for _, f := range v.Evidence.FalsifyingSample.Facts() {
			fmt.Printf("  %s\n", f)
		}
		return nil
	}
	fmt.Printf("certain: %v\n", v.Result.Certain)
	return nil
}

// cutoffReason names what stopped the solve.
func cutoffReason(ev *solver.Evidence) string {
	return fmt.Sprintf("search cut off after %d steps", ev.Steps)
}

// printUnknown reports a cut-off solve: the cause, the partial progress of
// the exact search, and the degradation sampler's estimate.
func printUnknown(v solver.Verdict) {
	fmt.Printf("certain: unknown  (%v)\n", v.Err)
	ev := v.Evidence
	if ev == nil {
		return
	}
	fmt.Printf("  search steps: %d\n", ev.Steps)
	if ev.TotalBlocks > 0 {
		fmt.Printf("  best falsifying candidate: %d of %d blocks fixed\n", ev.BestDepth, ev.TotalBlocks)
	}
	if ev.Samples > 0 {
		fmt.Printf("  sampled %d uniform repairs: %.1f%% satisfy the query\n", ev.Samples, 100*ev.Estimate)
		if ev.Estimate == 1 {
			fmt.Println("  (no sampled repair falsifies the query — evidence for certainty, not proof)")
		}
	}
}
