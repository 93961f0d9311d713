package fo

import (
	"errors"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
)

// bogus is a Formula implementation the evaluator does not know, standing
// in for any malformed hand-built AST reaching the public entry points.
type bogus struct{}

func (bogus) String() string                    { return "bogus" }
func (bogus) rename(map[string]cq.Term) Formula { return bogus{} }

func TestPanicsBecomeErrors(t *testing.T) {
	d := db.MustParse("R(a | b)")
	var pe *govern.PanicError

	if _, err := Eval(bogus{}, d); !errors.As(err, &pe) {
		t.Errorf("Eval(bogus): got %v, want PanicError", err)
	}
	if _, err := EvalWith(bogus{}, d, cq.Valuation{}); !errors.As(err, &pe) {
		t.Errorf("EvalWith(bogus): got %v, want PanicError", err)
	}
	if _, err := Compile(bogus{}); !errors.As(err, &pe) {
		t.Errorf("Compile(bogus): got %v, want PanicError", err)
	}
}

func TestGuardedEntryPointsStillWork(t *testing.T) {
	d := db.MustParse("R(a | b)")
	phi := Exists{Vars: []string{"x", "y"}, F: Atom{A: cq.NewAtom("R", 1, cq.Var("x"), cq.Var("y"))}}
	ok, err := Eval(phi, d)
	if err != nil || !ok {
		t.Fatalf("Eval: got (%v, %v), want (true, nil)", ok, err)
	}
	c, err := Compile(phi)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ok, err = c.Eval(d)
	if err != nil || !ok {
		t.Fatalf("Compiled.Eval: got (%v, %v), want (true, nil)", ok, err)
	}
}
