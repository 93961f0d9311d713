package solver

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
)

func TestSharedAcrossIsomorphicQueries(t *testing.T) {
	c := NewPlanCache(8, nil)
	a := cq.MustParseQuery("R(x | y), S(y | z)")
	b := cq.MustParseQuery("S(q | r), R(p | q)") // same canonical form
	pa, err := c.Get(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.Get(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatal("isomorphic queries must share one compiled plan")
	}
	if c.Stats().Len != 1 {
		t.Fatalf("Len = %d, want 1", c.Stats().Len)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestConcurrentGetsCompileOnce(t *testing.T) {
	c := NewPlanCache(8, nil)
	q := cq.MustParseQuery("R(x | y), S(y | z), T(z | w)")
	const n = 16
	plans := make([]*Plan, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Get(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent gets must return the single-flighted plan")
		}
	}
	if c.Stats().Len != 1 {
		t.Fatalf("Len = %d, want 1", c.Stats().Len)
	}
}

func TestErrorsCached(t *testing.T) {
	c := NewPlanCache(8, nil)
	selfJoin := cq.MustParseQuery("R(x | y), R(y | x)")
	if _, err := c.Get(context.Background(), selfJoin); err == nil {
		t.Fatal("self-join must fail to compile")
	}
	if _, err := c.Get(context.Background(), selfJoin); err == nil {
		t.Fatal("cached compile error must be returned")
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Fatalf("second Get must hit the cached error, stats %+v", s)
	}
}

func TestBounded(t *testing.T) {
	c := NewPlanCache(2, nil)
	for i := 0; i < 5; i++ {
		q := cq.MustParseQuery(fmt.Sprintf("R%d(x | y)", i))
		if _, err := c.Get(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Len != 2 {
		t.Fatalf("Len = %d, want capacity 2", c.Stats().Len)
	}
	if s := c.Stats(); s.Evictions != 3 {
		t.Fatalf("Evictions = %d, want 3", s.Evictions)
	}
}

// TestPlanSolvesCanonically: the cached plan decides the same instances as
// brute-force enumeration over the original query (decisions are invariant
// under the canonicalization's variable renaming).
func TestPlanSolvesCanonically(t *testing.T) {
	c := NewPlanCache(8, nil)
	q := cq.MustParseQuery("Emp(name | dept), Dept(dept | floor)")
	p, err := c.Get(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		d := gen.RandomDB(q, gen.Config{Embeddings: 4, Noise: 3, Domain: 3}, seed)
		want := BruteForce(q, d)
		got, err := p.SolveCtx(context.Background(), d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Result.Certain != want {
			t.Fatalf("seed %d: plan %v, brute force %v", seed, got.Result.Certain, want)
		}
	}
	// Also across an explicit fact set with constants shared by the query.
	d := db.MustParse("Emp(alice | sales), Emp(alice | hr), Dept(sales | 1), Dept(hr | 1)")
	want := BruteForce(q, d)
	v, err := p.SolveCtx(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.Certain != want {
		t.Fatalf("explicit instance: plan %v, brute force %v", v.Result.Certain, want)
	}
}
