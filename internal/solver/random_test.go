package solver

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/gen"
)

// TestSolveRandomQueries is the widest net in the suite: random
// self-join-free queries from two sources, random databases, dispatched
// solver vs brute force. Any classification or algorithm bug that affects
// answers on small instances surfaces here. gen.RandomAcyclicQuery yields
// almost only FO queries; keySwappedQuery plants weak 2-cycles, so the
// terminal class (Theorem 3, with and without unattacked atoms around its
// cycles), the open class and the coNP class are reached too.
func TestSolveRandomQueries(t *testing.T) {
	classCounts := make(map[core.Class]int)
	checked := 0
	for qseed := int64(0); qseed < 120; qseed++ {
		q := gen.RandomAcyclicQuery(qseed, 4)
		cls, err := core.Classify(q)
		if err != nil {
			continue // cyclic or otherwise out of scope
		}
		classCounts[cls.Class]++
		for dseed := int64(0); dseed < 6; dseed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 2, Domain: 2}, dseed)
			if d.NumRepairs().Cmp(big.NewInt(4096)) > 0 {
				continue
			}
			v, err := SolveCtx(context.Background(), q, d, Options{})
			res := v.Result
			if err != nil {
				t.Fatalf("q=%s dseed=%d: %v", q, dseed, err)
			}
			checked++
			if want := BruteForce(q, d); res.Certain != want {
				t.Errorf("q=%s (class %v, method %v) dseed=%d: solve=%v brute=%v\ndb:\n%s",
					q, cls.Class, res.Method, dseed, res.Certain, want, d)
			}
		}
	}
	if checked < 300 {
		t.Errorf("too few instances checked: %d", checked)
	}
	// The random family must exercise at least the FO class heavily and
	// hit some cyclic-attack-graph classes.
	if classCounts[core.ClassFO] == 0 {
		t.Error("no FO queries generated")
	}
	t.Logf("class distribution over random queries: %v, instances checked: %d", classCounts, checked)

	swappedCounts := make(map[core.Class]int)
	var withPrefix, baseOnly, swappedChecked int
	for qseed := int64(0); qseed < 400; qseed++ {
		q := keySwappedQuery(rand.New(rand.NewSource(qseed)))
		cls, err := core.Classify(q)
		if err != nil {
			continue // cyclic or otherwise out of scope
		}
		swappedCounts[cls.Class]++
		if cls.Class == core.ClassPTimeTerminal {
			if len(cls.Graph.Unattacked()) > 0 {
				withPrefix++
			} else {
				baseOnly++
			}
		}
		for dseed := int64(0); dseed < 6; dseed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 2, Noise: 2, Domain: 2}, dseed)
			if d.NumRepairs().Cmp(big.NewInt(4096)) > 0 {
				continue
			}
			v, err := SolveCtx(context.Background(), q, d, Options{})
			if err != nil {
				t.Fatalf("q=%s dseed=%d: %v", q, dseed, err)
			}
			swappedChecked++
			if want := BruteForce(q, d); v.Result.Certain != want {
				t.Errorf("q=%s (class %v, method %v) dseed=%d: solve=%v brute=%v\ndb:\n%s",
					q, cls.Class, v.Result.Method, dseed, v.Result.Certain, want, d)
			}
		}
	}
	// Theorem 3 must be reached both through Lemma 8's recursion and
	// straight at its base case.
	if withPrefix == 0 || baseOnly == 0 {
		t.Errorf("key-swapped source reached %d terminal queries with unattacked atoms and %d without; want both", withPrefix, baseOnly)
	}
	if swappedChecked < 1000 {
		t.Errorf("too few key-swapped instances checked: %d", swappedChecked)
	}
	t.Logf("class distribution over key-swapped queries: %v (terminal: %d with unattacked atoms, %d without), instances checked: %d",
		swappedCounts, withPrefix, baseOnly, swappedChecked)
}

// TestSolveRandomKeySwappedQueries generates queries biased toward attack
// cycles (atoms sharing variables with swapped key/non-key roles) to hit
// the non-FO classes more often.
func TestSolveRandomKeySwappedQueries(t *testing.T) {
	families := []string{
		"F(x, a | b), G(x, b | a)",
		"F(x, a | b), G(x, b | a), H(y, c | d), I(y, d | c)",
		"F(a | b), G(b | a), S(a, b | z)",
		"R1(x | y), R2(y | x), T(x | w)",
		"R(x | y), S(y | x, z)",
		"R(x, y | z), S(y, z | x)",
	}
	for _, fam := range families {
		q := cq.MustParseQuery(fam)
		cls, err := core.Classify(q)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for dseed := int64(0); dseed < 25; dseed++ {
			d := gen.RandomDB(q, gen.Config{Embeddings: 3, Noise: 2, Domain: 2}, dseed)
			if d.NumRepairs().Cmp(big.NewInt(100_000)) > 0 {
				continue
			}
			v, err := SolveCtx(context.Background(), q, d, Options{})
			res := v.Result
			if err != nil {
				t.Fatalf("%s dseed=%d: %v", fam, dseed, err)
			}
			if want := BruteForce(q, d); res.Certain != want {
				t.Errorf("%s (class %v, method %v) dseed=%d: solve=%v brute=%v\ndb:\n%s",
					fam, cls.Class, res.Method, dseed, res.Certain, want, d)
			}
		}
	}
}

// keySwappedQuery draws a self-join-free query that plants one or two
// key-swapped pairs F(k, a | b), G(k, b | a) — weak 2-cycles — among up to
// two random atoms over the same few variables, with an occasional
// constant. gen.RandomAcyclicQuery almost never yields an attack cycle;
// this source reaches the terminal, open and coNP classes as well as FO.
func keySwappedQuery(r *rand.Rand) cq.Query {
	vars := []string{"x", "y", "z", "u", "v"}
	variable := func() cq.Term { return cq.Var(vars[r.Intn(len(vars))]) }
	term := func() cq.Term {
		if r.Intn(6) == 0 {
			return cq.Const(fmt.Sprintf("c%d", r.Intn(2)))
		}
		return variable()
	}
	var atoms []cq.Atom
	add := func(keyLen int, args ...cq.Term) {
		atoms = append(atoms, cq.NewAtom(fmt.Sprintf("R%d", len(atoms)), keyLen, args...))
	}
	for i := 1 + r.Intn(2); i > 0; i-- {
		k, a, b := term(), variable(), variable()
		add(2, k, a, b)
		add(2, k, b, a)
	}
	for i := r.Intn(3); i > 0; i-- {
		args := make([]cq.Term, 1+r.Intn(3))
		for j := range args {
			args[j] = term()
		}
		add(1+r.Intn(len(args)), args...)
	}
	r.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
	return cq.NewQuery(atoms...)
}
