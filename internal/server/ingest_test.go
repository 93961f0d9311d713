package server

import (
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/gen"
	"github.com/cqa-go/certainty/internal/obs"
)

// inlineInstance is one instance of an end-to-end solve-inline family, in
// wire text.
type inlineInstance struct {
	name, query, db string
	method          string // the wire code of the method that decides it
}

// inlineInstances draws one instance per family of the end-to-end
// benchmark's solve-inline mix: FO with two and three atoms (~250 facts),
// AC(3) and C(3) cycles (~160 facts) and a small q0 instance.
func inlineInstances() []inlineInstance {
	fo2 := cq.MustParseQuery("R(x | y), S(y | z)")
	fo3 := cq.MustParseQuery("R(x | y), S(y | z), T(z | w)")
	text := func(d *db.DB) string { return d.String() }
	return []inlineInstance{
		{"fo2", fo2.String(), text(gen.RandomDB(fo2, gen.Config{Embeddings: 2, Noise: 125, Domain: 100}, 1)), "fo-rewriting"},
		{"fo3", fo3.String(), text(gen.RandomDB(fo3, gen.Config{Embeddings: 1, Noise: 84, Domain: 70}, 2)), "fo-rewriting"},
		{"ac3", cq.ACk(3).String(), text(gen.CycleDB(gen.CycleConfig{K: 3, Width: 2, Components: 8, EncodeAll: true})), "ack-marking"},
		{"c3", cq.Ck(3).String(), text(gen.CycleDB(gen.CycleConfig{K: 3, Width: 2, Components: 13, EncodeAll: true, SkipSk: true})), "ck-marking"},
		{"q0", cq.Q0().String(), text(gen.Q0DB(7, 2, 4, 3)), "falsifying-search"},
	}
}

// TestInlineSolveStringBuilds: an inline solve builds its database's string
// side only when its method reads it. FO, AC(3) and C(3) solves run on the
// interned columns alone; the q0 search reads facts, so it builds it once.
func TestInlineSolveStringBuilds(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	builds := obs.Default.Counter("db_string_builds_total")
	for _, in := range inlineInstances() {
		before := builds.Value()
		resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: in.query, DB: in.db}))
		got := builds.Value() - before
		if resp.Method != in.method {
			t.Fatalf("%s solved by %s, want %s", in.name, resp.Method, in.method)
		}
		want := uint64(0)
		if in.method == "falsifying-search" {
			want = 1
		}
		if got != want {
			t.Errorf("%s (%s): %d string sides built, want %d", in.name, in.method, got, want)
		}
	}
}
