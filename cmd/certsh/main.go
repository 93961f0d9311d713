// Command certsh is an interactive shell for exploring uncertain databases
// and certain query answering. Facts are added directly, databases loaded
// from files or CSV, queries classified and solved in place.
//
//	$ certsh
//	> add C(PODS, 2016 | Rome)
//	> add C(PODS, 2016 | Paris)
//	> add R(PODS | A)
//	> blocks
//	> classify C(x, y | 'Rome'), R(x | 'A')
//	> certain  C(x, y | 'Rome'), R(x | 'A')
//	> answers x : R(x | 'A')
//	> help
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"github.com/cqa-go/certainty/internal/answers"
	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/engine"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/prob"
	"github.com/cqa-go/certainty/internal/solver"
)

func main() {
	sh := newShell(os.Stdout)
	fmt.Println("certsh — certain query answering shell (type 'help')")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		if sh.exec(scanner.Text()) {
			return
		}
	}
}

// shell holds the session state: one mutable uncertain database plus the
// resource limits applied to every solve ('timeout' and 'budget' commands).
type shell struct {
	d       *db.DB
	out     io.Writer
	timeout time.Duration
	budget  int64
}

func newShell(out io.Writer) *shell {
	return &shell{d: db.New(), out: out}
}

// solveContext returns the context a governed command runs under: Ctrl-C
// cancels the running solve without killing the shell.
func (s *shell) solveContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

// exec runs one command line; it returns true when the session should end.
func (s *shell) exec(line string) bool {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return false
	}
	cmd, rest := line, ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		cmd, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	var err error
	switch cmd {
	case "exit", "quit":
		return true
	case "help":
		s.help()
	case "add":
		err = s.add(rest)
	case "load":
		err = s.load(rest)
	case "loadcsv":
		err = s.loadCSV(rest)
	case "clear":
		s.d = db.New()
		fmt.Fprintln(s.out, "cleared")
	case "show":
		fmt.Fprint(s.out, s.d.String())
	case "blocks":
		s.blocks()
	case "stats":
		s.stats()
	case "eval":
		err = s.withQuery(rest, func(q cq.Query) error {
			fmt.Fprintf(s.out, "satisfied (some repair): %v\n", engine.Eval(q, s.d))
			return nil
		})
	case "classify":
		err = s.withQuery(rest, s.classify)
	case "certain":
		err = s.withQuery(rest, s.certain)
	case "count":
		err = s.withQuery(rest, func(q cq.Query) error {
			n := prob.CountSatisfyingRepairs(q, s.d)
			fmt.Fprintf(s.out, "satisfying repairs: %v of %v\n", n, s.d.NumRepairs())
			return nil
		})
	case "prob":
		err = s.withQuery(rest, func(q cq.Query) error {
			pr, perr := prob.Probability(q, prob.Uniform(s.d))
			if perr != nil {
				return perr
			}
			fmt.Fprintf(s.out, "Pr(q) under uniform repairs: %v\n", pr)
			return nil
		})
	case "explain":
		err = s.withQuery(rest, func(q cq.Query) error {
			fmt.Fprint(s.out, engine.Explain(q, s.d))
			return nil
		})
	case "del":
		err = s.del(rest)
	case "rewrite":
		err = s.withQuery(rest, func(q cq.Query) error {
			phi, rerr := fo.RewriteAcyclic(q)
			if rerr != nil {
				return rerr
			}
			fmt.Fprintf(s.out, "φ = %s\n", phi)
			p, rerr := solver.CompilePlan(q)
			if rerr != nil {
				return rerr
			}
			prog, rerr := p.EmitSQL()
			if rerr != nil {
				return rerr
			}
			fmt.Fprintf(s.out, "SQL:\n%s", prog.Text)
			return nil
		})
	case "answers":
		err = s.answers(rest)
	case "timeout":
		err = s.setTimeout(rest)
	case "budget":
		err = s.setBudget(rest)
	default:
		err = fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
	}
	return false
}

func (s *shell) help() {
	fmt.Fprint(s.out, `commands:
  add <fact>             add a fact, e.g. add R(a, b | c)
  load <file>            load facts from a file in the textual format
  loadcsv <rel> <k> <f>  load relation <rel> with key length <k> from CSV
  show                   print all facts
  blocks                 print facts grouped by block
  stats                  facts, blocks, repairs, relations
  clear                  drop all facts
  del <fact>             remove a fact
  explain <query>        show the evaluation plan for the query
  eval <query>           is the query satisfied by the database itself?
  classify <query>       complexity of CERTAINTY(query)
  certain <query>        does every repair satisfy the query?
  count <query>          number of repairs satisfying the query
  prob <query>           probability under uniform repair semantics
  rewrite <query>        certain first-order rewriting (logic + SQL)
  answers <vars> : <q>   certain/possible answers, e.g. answers x, y : R(x | y)
  timeout <duration>     wall-clock limit per solve, e.g. timeout 5s (0 = none)
  budget <steps>         search-step limit per solve (0 = none)
  exit                   leave

Ctrl-C during 'certain' or 'answers' cancels the solve, not the shell. A
'certain' cut off by the timeout, budget, or Ctrl-C reports an unknown
verdict with partial evidence and a sampled repair-satisfaction estimate;
an 'answers' candidate cut off fails the command with the cause.
`)
}

func (s *shell) setTimeout(rest string) error {
	if rest == "" {
		fmt.Fprintf(s.out, "timeout: %v\n", s.timeout)
		return nil
	}
	d, err := time.ParseDuration(rest)
	if err != nil || d < 0 {
		return fmt.Errorf("usage: timeout <duration>, e.g. timeout 5s (got %q)", rest)
	}
	s.timeout = d
	fmt.Fprintf(s.out, "timeout: %v\n", s.timeout)
	return nil
}

func (s *shell) setBudget(rest string) error {
	if rest == "" {
		fmt.Fprintf(s.out, "budget: %d\n", s.budget)
		return nil
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return fmt.Errorf("usage: budget <steps> (got %q)", rest)
	}
	s.budget = n
	fmt.Fprintf(s.out, "budget: %d\n", s.budget)
	return nil
}

func (s *shell) add(text string) error {
	if text == "" {
		return fmt.Errorf("usage: add R(a, b | c)")
	}
	facts, err := db.Parse(text)
	if err != nil {
		return err
	}
	for _, f := range facts.Facts() {
		if err := s.d.Add(f); err != nil {
			return err
		}
	}
	fmt.Fprintf(s.out, "%d fact(s)\n", s.d.Len())
	return nil
}

func (s *shell) del(text string) error {
	if text == "" {
		return fmt.Errorf("usage: del R(a, b | c)")
	}
	facts, err := db.Parse(text)
	if err != nil {
		return err
	}
	removed := 0
	for _, f := range facts.Facts() {
		if s.d.Remove(f) {
			removed++
		}
	}
	fmt.Fprintf(s.out, "removed %d fact(s); %d remain\n", removed, s.d.Len())
	return nil
}

func (s *shell) load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	loaded, err := db.Parse(string(data))
	if err != nil {
		return err
	}
	for _, f := range loaded.Facts() {
		if err := s.d.Add(f); err != nil {
			return err
		}
	}
	fmt.Fprintf(s.out, "loaded; %d fact(s) total\n", s.d.Len())
	return nil
}

func (s *shell) loadCSV(rest string) error {
	parts := strings.Fields(rest)
	if len(parts) != 3 {
		return fmt.Errorf("usage: loadcsv <relation> <keyLen> <file>")
	}
	var keyLen int
	if _, err := fmt.Sscanf(parts[1], "%d", &keyLen); err != nil {
		return fmt.Errorf("bad key length %q", parts[1])
	}
	f, err := os.Open(parts[2])
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.d.ReadCSV(parts[0], keyLen, f); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "loaded; %d fact(s) total\n", s.d.Len())
	return nil
}

func (s *shell) blocks() {
	for _, blk := range s.d.Blocks() {
		marker := " "
		if len(blk) > 1 {
			marker = "!" // uncertain block
		}
		for i, f := range blk {
			if i == 0 {
				fmt.Fprintf(s.out, "%s %s\n", marker, f)
			} else {
				fmt.Fprintf(s.out, "%s   ⊕ %s\n", marker, f)
			}
		}
	}
}

func (s *shell) stats() {
	fmt.Fprintf(s.out, "facts: %d  blocks: %d  repairs: %v  consistent: %v\n",
		s.d.Len(), s.d.NumBlocks(), s.d.NumRepairs(), s.d.IsConsistent())
	for _, rel := range s.d.Relations() {
		ar, kl, _ := s.d.Signature(rel)
		fmt.Fprintf(s.out, "  %s[%d,%d]: %d facts\n", rel, ar, kl, len(s.d.FactsOf(rel)))
	}
}

func (s *shell) withQuery(text string, f func(cq.Query) error) error {
	if text == "" {
		return fmt.Errorf("missing query")
	}
	q, err := cq.ParseQuery(text)
	if err != nil {
		return err
	}
	return f(q)
}

func (s *shell) classify(q cq.Query) error {
	cls, err := core.Classify(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "CERTAINTY(q): %s\n%s\n", cls.Class, cls.Reason)
	return nil
}

func (s *shell) certain(q cq.Query) error {
	ctx, stop := s.solveContext()
	defer stop()
	v, err := solver.SolveCtx(ctx, q, s.d, solver.Options{Budget: s.budget, Timeout: s.timeout})
	if err != nil {
		return err
	}
	if v.Outcome == solver.OutcomeUnknown {
		fmt.Fprintf(s.out, "certain: unknown  (%v; class: %s, method: %s)\n",
			v.Err, v.Result.Classification.Class, v.Result.Method)
		if ev := v.Evidence; ev != nil {
			fmt.Fprintf(s.out, "  search steps: %d\n", ev.Steps)
			if ev.TotalBlocks > 0 {
				fmt.Fprintf(s.out, "  best falsifying candidate: %d of %d blocks fixed\n",
					ev.BestDepth, ev.TotalBlocks)
			}
			if ev.Samples > 0 {
				fmt.Fprintf(s.out, "  sampled %d uniform repairs: %.1f%% satisfy the query\n",
					ev.Samples, 100*ev.Estimate)
			}
		}
		return nil
	}
	fmt.Fprintf(s.out, "certain: %v  (class: %s, method: %s)\n",
		v.Result.Certain, v.Result.Classification.Class, v.Result.Method)
	if !v.Result.Certain {
		if ev := v.Evidence; ev != nil && ev.FalsifyingSample != nil {
			fmt.Fprintln(s.out, "falsifying repair (sampled after cutoff):")
			for _, f := range ev.FalsifyingSample.Facts() {
				fmt.Fprintf(s.out, "  %s\n", f)
			}
			return nil
		}
		if rep, found, err := solver.FalsifyingRepair(ctx, q, s.d); err == nil && found {
			fmt.Fprintln(s.out, "falsifying repair:")
			for _, f := range rep {
				fmt.Fprintf(s.out, "  %s\n", f)
			}
		}
	}
	return nil
}

func (s *shell) answers(rest string) error {
	i := strings.Index(rest, ":")
	if i < 0 {
		return fmt.Errorf("usage: answers x, y : R(x | y)")
	}
	var free []string
	for _, v := range strings.Split(rest[:i], ",") {
		v = strings.TrimSpace(v)
		if v != "" {
			free = append(free, v)
		}
	}
	q, err := cq.ParseQuery(strings.TrimSpace(rest[i+1:]))
	if err != nil {
		return err
	}
	ctx, stop := s.solveContext()
	defer stop()
	res, err := answers.Certain(ctx, q, free, s.d, solver.Options{Budget: s.budget, Timeout: s.timeout})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "certain answers (%d):\n", len(res.Certain))
	for _, a := range res.Certain {
		fmt.Fprintf(s.out, "  %v\n", []string(a))
	}
	fmt.Fprintf(s.out, "possible answers (%d):\n", len(res.Possible))
	for _, a := range res.Possible {
		fmt.Fprintf(s.out, "  %v\n", []string(a))
	}
	return nil
}
