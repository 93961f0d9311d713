package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/solver"
)

// runScript executes commands against a fresh shell and returns the
// combined output.
func runScript(t *testing.T, lines ...string) string {
	t.Helper()
	var b strings.Builder
	sh := newShell(&b)
	for _, l := range lines {
		if sh.exec(l) {
			break
		}
	}
	return b.String()
}

func TestShellConferenceSession(t *testing.T) {
	out := runScript(t,
		"add C(PODS, 2016 | Rome)",
		"add C(PODS, 2016 | Paris)",
		"add C(KDD, 2017 | Rome)",
		"add R(PODS | A), R(KDD | A), R(KDD | B)",
		"stats",
		"blocks",
		"eval C(x, y | 'Rome'), R(x | 'A')",
		"classify C(x, y | 'Rome'), R(x | 'A')",
		"certain C(x, y | 'Rome'), R(x | 'A')",
		"count C(x, y | 'Rome'), R(x | 'A')",
		"prob C(x, y | 'Rome'), R(x | 'A')",
		"answers x : R(x | 'A')",
	)
	for _, want := range []string{
		"facts: 6  blocks: 4  repairs: 4",
		"satisfied (some repair): true",
		"first-order expressible",
		"certain: false",
		"falsifying repair:",
		"satisfying repairs: 3 of 4",
		"Pr(q) under uniform repairs: 3/4",
		"certain answers (1):",
		"[PODS]",
		"!", // uncertain-block marker
	} {
		if !strings.Contains(out, want) {
			t.Errorf("session output missing %q:\n%s", want, out)
		}
	}
}

func TestShellRewrite(t *testing.T) {
	out := runScript(t, "rewrite R(x | y), S(y | z)")
	for _, want := range []string{"φ =", "SQL:", "EXISTS"} {
		if !strings.Contains(out, want) {
			t.Errorf("rewrite output missing %q:\n%s", want, out)
		}
	}
	// The printed SQL is the statement the query's plan emits.
	p, err := solver.CompilePlan(cq.MustParseQuery("R(x | y), S(y | z)"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.EmitSQL()
	if err != nil {
		t.Fatal(err)
	}
	if got := out[strings.Index(out, "SQL:\n")+len("SQL:\n"):]; !strings.HasPrefix(got, prog.Text) {
		t.Errorf("rewrite printed SQL\n%s\nwant Plan.EmitSQL's statement\n%s", got, prog.Text)
	}
	out = runScript(t, "rewrite R(x | y), S(y | x)")
	if !strings.Contains(out, "error:") {
		t.Errorf("cyclic attack graph should error:\n%s", out)
	}
}

func TestShellLoadAndCSV(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "facts.txt")
	os.WriteFile(dbPath, []byte("R(a | b)\nR(a | c)\n"), 0o644)
	csvPath := filepath.Join(dir, "s.csv")
	os.WriteFile(csvPath, []byte("b,1\nc,2\n"), 0o644)
	out := runScript(t,
		"load "+dbPath,
		"loadcsv S 1 "+csvPath,
		"stats",
		"certain R(x | y), S(y | z)",
	)
	for _, want := range []string{"facts: 4", "certain: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellClearShowHelpExit(t *testing.T) {
	out := runScript(t, "add R(a | b)", "clear", "stats", "help", "show")
	if !strings.Contains(out, "facts: 0") {
		t.Errorf("clear failed:\n%s", out)
	}
	if !strings.Contains(out, "commands:") {
		t.Errorf("help missing:\n%s", out)
	}
	var b strings.Builder
	sh := newShell(&b)
	if !sh.exec("exit") || !sh.exec("quit") {
		t.Error("exit/quit must end the session")
	}
	if sh.exec("") || sh.exec("# comment") {
		t.Error("blank/comment lines must not end the session")
	}
}

func TestShellErrors(t *testing.T) {
	cases := []string{
		"bogus",
		"add",
		"add R(",
		"add R(x | y)", // variables are constants in db files, so this is OK...
		"load /nonexistent/path",
		"loadcsv S 1",
		"loadcsv S x file",
		"loadcsv S 1 /nonexistent/path",
		"certain",
		"certain R(",
		"answers x R(x | y)",          // missing colon
		"answers x : R(",              // bad query
		"answers zz : R(x | y)",       // unknown variable
		"classify R(x | y), R(y | x)", // self-join
	}
	for _, c := range cases {
		if c == "add R(x | y)" {
			continue // legal: identifiers are constants in fact syntax
		}
		out := runScript(t, c)
		if !strings.Contains(out, "error:") {
			t.Errorf("command %q should report an error, got:\n%s", c, out)
		}
	}
}

func TestShellExplainAndDel(t *testing.T) {
	out := runScript(t,
		"add R(a | b), R(a | c), S(b | x)",
		"explain R(u | v), S(v | w)",
		"del R(a | c)",
		"stats",
		"del R(zz | zz)",
	)
	for _, want := range []string{"1.", "candidates", "removed 1 fact(s)", "facts: 2", "removed 0 fact(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if out := runScript(t, "del"); !strings.Contains(out, "error:") {
		t.Error("del without args should error")
	}
	if out := runScript(t, "explain"); !strings.Contains(out, "error:") {
		t.Error("explain without args should error")
	}
}

func TestShellTimeoutBudgetSettings(t *testing.T) {
	out := runScript(t,
		"timeout",
		"timeout 5s",
		"budget",
		"budget 1000",
		"timeout 0s",
		"budget 0",
	)
	for _, want := range []string{"timeout: 0s", "timeout: 5s", "budget: 0", "budget: 1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(runScript(t, "timeout abc"), "error:") {
		t.Error("bad timeout should report an error")
	}
	if !strings.Contains(runScript(t, "budget -3"), "error:") {
		t.Error("bad budget should report an error")
	}
}

func TestShellCertainBudgetUnknown(t *testing.T) {
	// A strong-cycle (coNP) instance under a one-step budget: the governed
	// solve is cut off and degrades to an unknown verdict with evidence.
	out := runScript(t,
		"add R0(a | b), R0(a | c)",
		"add S0(b, z | a), S0(c, z | a)",
		"budget 1",
		"certain R0(x | y), S0(y, z | x)",
	)
	if !strings.Contains(out, "certain: unknown") {
		t.Fatalf("expected an unknown verdict:\n%s", out)
	}
	if !strings.Contains(out, "search steps:") {
		t.Errorf("unknown verdict missing evidence:\n%s", out)
	}
}
