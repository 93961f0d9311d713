package fo_test

import (
	"strings"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/emit"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/solver"
)

// emittedSQL compiles q's plan and returns the SQL statement it emits for
// the certain rewriting — the one SQL lowering of a rewriting.
func emittedSQL(q cq.Query) (string, error) {
	p, err := solver.CompilePlan(q)
	if err != nil {
		return "", err
	}
	prog, err := p.EmitSQL()
	return prog.Text, err
}

func TestSQLRendering(t *testing.T) {
	sql, err := emittedSQL(cq.MustParseQuery("R(x | y), S(y | z)"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EXISTS", "cqa_adom", `"R"`, `"S"`, "c1 ="} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
	q := cq.MustParseQuery("R(x | y)")
	if _, err := emit.SQL(q, fo.Eq{L: cq.Var("x"), R: cq.Const("a")}, "fo-rewriting"); err == nil {
		t.Error("free variables must be rejected")
	}
	// Constant escaping.
	s, err := emittedSQL(cq.Query{Atoms: []cq.Atom{cq.NewAtom("R", 1, cq.Var("x"), cq.Const("it's"))}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "'it''s'") {
		t.Errorf("single quotes must be doubled: %s", s)
	}
}

// TestSQLEscaping locks the hardened rendering of the emitted statement:
// quotes double in both literal and identifier position, backslashes pass
// through verbatim (standard-conforming strings), variable names never
// reach the statement (the plan canonicalizes them), and NUL anywhere is
// rejected like the snapshot parsers reject it.
func TestSQLEscaping(t *testing.T) {
	atom := func(rel string, args ...cq.Term) cq.Query {
		return cq.Query{Atoms: []cq.Atom{cq.NewAtom(rel, 1, args...)}}
	}
	cases := []struct {
		name string
		q    cq.Query
		want string
	}{
		{"const quote", atom("R", cq.Var("x"), cq.Const(`a'b`)), `'a''b'`},
		{"const backslash", atom("R", cq.Var("x"), cq.Const(`a\b`)), `'a\b'`},
		{"rel quote", atom(`R"x`, cq.Var("x"), cq.Const("a")), `"R""x"`},
	}
	for _, c := range cases {
		s, err := emittedSQL(c.q)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !strings.Contains(s, c.want) {
			t.Errorf("%s: SQL missing %q:\n%s", c.name, c.want, s)
		}
	}
	if s, err := emittedSQL(atom("R", cq.Var(`v"x`), cq.Const("a"))); err != nil || strings.Contains(s, `v"x`) {
		t.Errorf("a variable name reached the statement (err %v):\n%s", err, s)
	}

	for _, q := range []cq.Query{
		atom("R", cq.Var("x"), cq.Const("a\x00b")),
		atom("R\x00", cq.Var("x"), cq.Const("a")),
		atom("R", cq.Const("\x00"), cq.Var("y")),
	} {
		if _, err := emittedSQL(q); err == nil || !strings.Contains(err.Error(), "NUL") {
			t.Errorf("SQL(%v) = %v, want NUL rejection", q, err)
		}
	}
}
