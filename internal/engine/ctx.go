package engine

import (
	"context"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
)

// One enumeration counter for the whole engine: resolved once, one atomic
// add per EachEmbeddingCtx call (not per search node — the governor already
// counts nodes as steps).
var embeddingEnumerations = obs.Default.Counter("engine_embedding_enumerations_total")

func init() {
	obs.Default.Help("engine_embedding_enumerations_total", "Embedding enumerations started (EachEmbeddingCtx calls).")
}

// EachEmbeddingCtx is EachEmbedding with cooperative cancellation: one
// governor step is charged per search node, and enumeration aborts with
// the governor's error on cancellation, deadline, or budget exhaustion.
// The bool result is false iff some yield returned false; it is
// unspecified when the error is non-nil.
func EachEmbeddingCtx(ctx context.Context, q cq.Query, d *db.DB, yield func(cq.Valuation) bool) (bool, error) {
	embeddingEnumerations.Inc()
	return eachEmbeddingInterned(govern.From(ctx), q, d, yield)
}

// EvalCtx is Eval with cooperative cancellation.
func EvalCtx(ctx context.Context, q cq.Query, d *db.DB) (bool, error) {
	embeddingEnumerations.Inc()
	return evalInterned(govern.From(ctx), q, d)
}

// PurifyCtx is Purify with cooperative cancellation. Purification is
// polynomial, but its embedding enumeration can still dominate on large
// databases; the same governor that bounds the enclosing search bounds it.
func PurifyCtx(ctx context.Context, q cq.Query, d *db.DB) (*db.DB, error) {
	return purifyInterned(govern.From(ctx), q, d)
}
