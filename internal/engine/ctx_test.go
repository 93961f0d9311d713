package engine

import (
	"context"
	"errors"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
)

func TestEachEmbeddingCtxMatchesEachEmbedding(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	d := db.MustParse("R(a | b), R(a | c), R(d | b), S(b | e), S(c | f)")
	want := Embeddings(q, d)
	var got []cq.Valuation
	done, err := eachEmbedding(govern.From(context.Background()), q, AllBlocks(d), func(v cq.Valuation) bool {
		got = append(got, v)
		return true
	})
	if err != nil || !done {
		t.Fatalf("governed eachEmbedding: done=%v err=%v", done, err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d embeddings, EachEmbedding found %d", len(got), len(want))
	}
}

func TestEachEmbeddingCtxFault(t *testing.T) {
	q := cq.MustParseQuery("R(x | y)")
	d := db.MustParse("R(a | b), R(c | d), R(e | f), R(g | h)")
	boom := errors.New("injected fault")
	g := govern.New(context.Background(), govern.Options{
		Fault: func(step int64) error {
			if step >= 2 {
				return boom
			}
			return nil
		},
	})
	defer g.Close()
	var seen int
	done, err := eachEmbedding(g, q, AllBlocks(d), func(cq.Valuation) bool {
		seen++
		return true
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if done {
		t.Fatal("done = true on a faulted enumeration")
	}
	if seen >= 4 {
		t.Fatalf("enumeration ran to completion (%d embeddings) despite the fault", seen)
	}
}

func TestEachEmbeddingCtxCanceled(t *testing.T) {
	q := cq.MustParseQuery("R(x | y)")
	d := db.MustParse("R(a | b), R(c | d)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := govern.New(ctx, govern.Options{CheckEvery: 1})
	defer g.Close()
	_, err := eachEmbedding(g, q, AllBlocks(d), func(cq.Valuation) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEvalCtxAndPurifyCtxAgree(t *testing.T) {
	q := cq.MustParseQuery("R(x | y), S(y | z)")
	d := db.MustParse("R(a | b), R(a | c), S(b | e), R(z | w)")
	ok, err := AllBlocks(d).Eval(context.Background(), q)
	if err != nil {
		t.Fatalf("BlockSet.Eval: %v", err)
	}
	if want := Eval(q, d); ok != want {
		t.Fatalf("BlockSet.Eval = %v, Eval = %v", ok, want)
	}
	s, err := AllBlocks(d).Purify(context.Background(), q)
	if err != nil {
		t.Fatalf("BlockSet.Purify: %v", err)
	}
	if got, want := s.restrict(d), Purify(q, d); !got.Equal(want) {
		t.Fatalf("BlockSet.Purify = %v, Purify = %v", got, want)
	}
}

// TestEmptyQuery pins the orderAtoms guard: an atomless query has one empty
// embedding and is true everywhere, in both the plain and context-aware
// enumerators.
func TestEmptyQuery(t *testing.T) {
	var q cq.Query
	d := db.MustParse("R(a | b)")
	if got := Embeddings(q, d); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("Embeddings(empty query) = %v, want one empty valuation", got)
	}
	if !Eval(q, d) {
		t.Fatal("Eval(empty query) = false, want true")
	}
	var count int
	done, err := eachEmbedding(govern.From(context.Background()), q, AllBlocks(d), func(v cq.Valuation) bool {
		count++
		return true
	})
	if err != nil || !done || count != 1 {
		t.Fatalf("governed eachEmbedding(empty query): done=%v err=%v count=%d, want one embedding", done, err, count)
	}
	if got := orderAtoms(q, AllBlocks(d)); got != nil {
		t.Fatalf("orderAtoms(empty query) = %v, want nil", got)
	}
}
