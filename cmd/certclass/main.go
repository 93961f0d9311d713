// Command certclass classifies the complexity of CERTAINTY(q) for a
// Boolean conjunctive query using the attack-graph method of Wijsen
// (PODS 2013). It prints the join tree, the attack graph with weak/strong
// labels and closures, the cycle structure, the complexity verdict, the
// Dalvi–Ré–Suciu safety status, and — when one exists — the certain
// first-order rewriting (logic and SQL forms).
//
// Usage:
//
//	certclass 'R(x | y), S(y | x)'
//	certclass -f query.cq
//	certclass -family q1|q0|conference|terminal|C3|AC3|...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/jointree"
	"github.com/cqa-go/certainty/internal/prob"
	"github.com/cqa-go/certainty/internal/solver"
)

func main() {
	file := flag.String("f", "", "read the query from a file")
	family := flag.String("family", "", "use a built-in family: q0, q1, conference, terminal, open, Ck, ACk (e.g. C3, AC4)")
	dot := flag.String("dot", "", "emit Graphviz output instead of the report: 'attack' or 'jointree'")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: certclass [-f file | -family name] ['query text']\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	q, err := loadQuery(*file, *family, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "certclass:", err)
		os.Exit(1)
	}
	if *dot != "" {
		if err := emitDOT(q, *dot); err != nil {
			fmt.Fprintln(os.Stderr, "certclass:", err)
			os.Exit(1)
		}
		return
	}
	if *asJSON {
		if err := emitJSON(os.Stdout, q); err != nil {
			fmt.Fprintln(os.Stderr, "certclass:", err)
			os.Exit(1)
		}
		return
	}
	if err := report(os.Stdout, q); err != nil {
		fmt.Fprintln(os.Stderr, "certclass:", err)
		os.Exit(1)
	}
}

func loadQuery(file, family string, args []string) (cq.Query, error) {
	switch {
	case family != "":
		return familyQuery(family)
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return cq.Query{}, err
		}
		return cq.ParseQuery(string(data))
	case len(args) == 1:
		return cq.ParseQuery(args[0])
	default:
		return cq.Query{}, fmt.Errorf("provide a query argument, -f file, or -family name")
	}
}

func familyQuery(name string) (cq.Query, error) {
	switch strings.ToLower(name) {
	case "q0":
		return cq.Q0(), nil
	case "q1":
		return cq.Q1(), nil
	case "conference":
		return cq.ConferenceQuery(), nil
	case "terminal":
		return cq.TerminalCyclesQuery(), nil
	case "open":
		return gen.OpenCaseQuery(), nil
	}
	lower := strings.ToLower(name)
	if strings.HasPrefix(lower, "ac") {
		if k, err := strconv.Atoi(lower[2:]); err == nil && k >= 2 {
			return cq.ACk(k), nil
		}
	} else if strings.HasPrefix(lower, "c") {
		if k, err := strconv.Atoi(lower[1:]); err == nil && k >= 2 {
			return cq.Ck(k), nil
		}
	}
	return cq.Query{}, fmt.Errorf("unknown family %q", name)
}

func emitDOT(q cq.Query, kind string) error {
	switch kind {
	case "attack":
		g, err := core.BuildAttackGraph(q, jointree.TieBreakLex)
		if err != nil {
			return err
		}
		fmt.Print(g.DOT())
		return nil
	case "jointree":
		t, err := jointree.Build(q, jointree.TieBreakLex)
		if err != nil {
			return err
		}
		fmt.Print(t.DOT())
		return nil
	default:
		return fmt.Errorf("unknown -dot kind %q (want attack or jointree)", kind)
	}
}

func report(w io.Writer, q cq.Query) error {
	fmt.Fprintf(w, "query: %s\n", q)
	fmt.Fprintf(w, "self-join-free: %v\n", !q.HasSelfJoin())
	fmt.Fprintf(w, "acyclic (has join tree): %v\n", jointree.IsAcyclic(q))
	fmt.Fprintf(w, "safe (Dalvi–Ré–Suciu): %v\n", prob.IsSafe(q))

	cls, err := core.Classify(q)
	if err != nil {
		fmt.Fprintf(w, "classification: unsupported (%v)\n", err)
		return nil
	}
	if cls.Graph != nil {
		g := cls.Graph
		fmt.Fprintf(w, "join tree: %s\n", g.Tree)
		fmt.Fprintln(w, "closures:")
		for i, a := range q.Atoms {
			fmt.Fprintf(w, "  %s: key=%s  F+=%s  F⊕=%s\n",
				a.Rel, a.KeyVars(), g.Plus(i), g.Full(i))
		}
		fmt.Fprintln(w, "attacks:")
		any := false
		for i := 0; i < g.Len(); i++ {
			for j := 0; j < g.Len(); j++ {
				if i == j || !g.Attacks(i, j) {
					continue
				}
				any = true
				kind := "weak"
				if g.IsStrong(i, j) {
					kind = "strong"
				}
				fmt.Fprintf(w, "  %s ↝ %s (%s)\n", q.Atoms[i].Rel, q.Atoms[j].Rel, kind)
			}
		}
		if !any {
			fmt.Fprintln(w, "  (none)")
		}
		fmt.Fprintln(w, "attack cycles:")
		cycles := g.Cycles()
		if len(cycles) == 0 {
			fmt.Fprintln(w, "  (none — attack graph acyclic)")
		}
		for _, c := range cycles {
			names := make([]string, len(c))
			for i, v := range c {
				names[i] = q.Atoms[v].Rel
			}
			kind := "weak"
			if g.CycleIsStrong(c) {
				kind = "strong"
			}
			term := "terminal"
			if !g.CycleIsTerminal(c) {
				term = "nonterminal"
			}
			fmt.Fprintf(w, "  %s (%s, %s)\n", strings.Join(names, " ↝ "), kind, term)
		}
	}
	fmt.Fprintf(w, "CERTAINTY(q): %s\n", cls.Class)
	fmt.Fprintf(w, "reason: %s\n", cls.Reason)

	if cls.Class == core.ClassFO {
		phi, err := fo.RewriteAcyclic(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "certain FO rewriting:\n  %s\n", phi)
		sql, err := emittedSQL(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "as SQL:\n%s", sql)
	}
	return nil
}

// emittedSQL returns the self-contained SQL statement the query's plan
// emits for its certain rewriting (the program /v1/compile serves).
func emittedSQL(q cq.Query) (string, error) {
	p, err := solver.CompilePlan(q)
	if err != nil {
		return "", err
	}
	prog, err := p.EmitSQL()
	return prog.Text, err
}
