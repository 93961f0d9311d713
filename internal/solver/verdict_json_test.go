package solver

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
)

// roundTrip marshals v and unmarshals it back.
func roundTrip(t *testing.T, v Verdict) Verdict {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Verdict
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	return back
}

// assertVerdictEqual compares the wire-visible parts of two verdicts.
func assertVerdictEqual(t *testing.T, got, want Verdict) {
	t.Helper()
	if got.Outcome != want.Outcome {
		t.Errorf("Outcome = %v, want %v", got.Outcome, want.Outcome)
	}
	if got.Result.Certain != want.Result.Certain ||
		got.Result.Method != want.Result.Method ||
		got.Result.Classification.Class != want.Result.Classification.Class ||
		got.Result.Classification.Reason != want.Result.Classification.Reason ||
		got.Result.SimplifiedClass != want.Result.SimplifiedClass {
		t.Errorf("Result = %+v, want %+v", got.Result, want.Result)
	}
	if (want.Err == nil) != (got.Err == nil) || (want.Err != nil && !errors.Is(got.Err, want.Err)) {
		t.Errorf("Err = %v, want %v", got.Err, want.Err)
	}
	if (want.Evidence == nil) != (got.Evidence == nil) {
		t.Fatalf("Evidence presence mismatch: got %v, want %v", got.Evidence, want.Evidence)
	}
	if want.Evidence == nil {
		return
	}
	ge, we := got.Evidence, want.Evidence
	if ge.Steps != we.Steps || ge.TotalBlocks != we.TotalBlocks || ge.BestDepth != we.BestDepth ||
		ge.Samples != we.Samples || ge.Estimate != we.Estimate {
		t.Errorf("Evidence = %+v, want %+v", ge, we)
	}
	if len(ge.BestCandidate) != len(we.BestCandidate) {
		t.Errorf("BestCandidate has %d facts, want %d", len(ge.BestCandidate), len(we.BestCandidate))
	} else {
		for i := range we.BestCandidate {
			if !ge.BestCandidate[i].Equal(we.BestCandidate[i]) {
				t.Errorf("BestCandidate[%d] = %v, want %v", i, ge.BestCandidate[i], we.BestCandidate[i])
			}
		}
	}
	if (we.FalsifyingSample == nil) != (ge.FalsifyingSample == nil) {
		t.Fatalf("FalsifyingSample presence mismatch")
	}
	if we.FalsifyingSample != nil && !ge.FalsifyingSample.Equal(we.FalsifyingSample) {
		t.Errorf("FalsifyingSample = %v, want %v", ge.FalsifyingSample, we.FalsifyingSample)
	}
}

// TestVerdictJSONRoundTripExact covers conclusive verdicts from real solves
// on both an FO-class and a coNP-class instance.
func TestVerdictJSONRoundTripExact(t *testing.T) {
	cases := []struct {
		name string
		q    cq.Query
		d    *db.DB
	}{
		{"FO certain", cq.MustParseQuery("R(x | y)"), db.MustParse("R(a | b), R(c | d)")},
		{"FO not certain", cq.MustParseQuery("R(x | y), S(y | z)"), db.MustParse("R(a | b), R(a | c), S(b | d)")},
		{"coNP certain", cq.Q0(), oddRingDB(5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := SolveCtx(context.Background(), tc.q, tc.d, Options{})
			if err != nil {
				t.Fatalf("SolveCtx: %v", err)
			}
			assertVerdictEqual(t, roundTrip(t, v), v)
		})
	}
}

// TestVerdictJSONRoundTripDegraded covers a budget-cutoff verdict with the
// full evidence payload: partial search state plus sampling results.
func TestVerdictJSONRoundTripDegraded(t *testing.T) {
	v, err := SolveCtx(context.Background(), cq.Q0(), oddRingDB(21), Options{
		Budget:         60,
		DegradeSamples: 100,
		SampleSeed:     1,
	})
	if err != nil {
		t.Fatalf("SolveCtx: %v", err)
	}
	if v.Outcome != OutcomeUnknown || v.Evidence == nil {
		t.Fatalf("want a cut-off verdict with evidence, got %+v", v)
	}
	back := roundTrip(t, v)
	assertVerdictEqual(t, back, v)
	if !errors.Is(back.Err, govern.ErrBudget) {
		t.Errorf("decoded Err = %v, want ErrBudget", back.Err)
	}
}

// TestVerdictJSONRoundTripSampledWitness covers the upgraded verdict whose
// evidence carries a sampled falsifying repair (a full db.DB on the wire).
func TestVerdictJSONRoundTripSampledWitness(t *testing.T) {
	boom := errors.New("injected fault")
	v, err := SolveCtx(context.Background(), cq.Q0(), db.MustParse("R0(a | b), R0(a | c)"), Options{
		Fault:          func(int64) error { return boom },
		DegradeSamples: 50,
		SampleSeed:     3,
	})
	if err != nil {
		t.Fatalf("SolveCtx: %v", err)
	}
	if v.Evidence == nil || v.Evidence.FalsifyingSample == nil {
		t.Fatalf("want a sampled witness, got %+v", v)
	}
	assertVerdictEqual(t, roundTrip(t, v), v)
}

// TestVerdictJSONErrorCodes pins the wire codes of the canonical cutoff
// causes and checks each decodes back to an errors.Is-matchable value.
func TestVerdictJSONErrorCodes(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{context.DeadlineExceeded, "deadline"},
		{context.Canceled, "canceled"},
		{govern.ErrBudget, "budget"},
		{ErrExactSkipped, "skipped"},
	}
	for _, tc := range cases {
		w := encodeVerdictErr(tc.err)
		if w.Code != tc.code {
			t.Errorf("encode(%v).Code = %q, want %q", tc.err, w.Code, tc.code)
		}
		if back := decodeVerdictErr(w); !errors.Is(back, tc.err) {
			t.Errorf("decode(%q) = %v, not errors.Is-matchable with %v", tc.code, back, tc.err)
		}
	}
	// Unknown causes survive as messages.
	w := encodeVerdictErr(errors.New("weird"))
	if w.Code != "internal" || w.Message != "weird" {
		t.Errorf("encode(weird) = %+v", w)
	}
	if back := decodeVerdictErr(w); back.Error() == "" {
		t.Error("decoded internal error lost its message")
	}
}

// TestDegradedSolve exercises the breaker short-circuit path: no exact
// search, classification still exact, sampling evidence present.
func TestDegradedSolve(t *testing.T) {
	p, err := CompilePlan(cq.Q0())
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Degraded(context.Background(), oddRingDB(5), Options{DegradeSamples: 100, SampleSeed: 1})
	if err != nil {
		t.Fatalf("Degraded: %v", err)
	}
	if v.Outcome != OutcomeUnknown {
		t.Fatalf("Outcome = %v, want unknown (odd ring is certain; sampling cannot prove it)", v.Outcome)
	}
	if !errors.Is(v.Err, ErrExactSkipped) {
		t.Fatalf("Err = %v, want ErrExactSkipped", v.Err)
	}
	if v.Result.Method != MethodFalsifying {
		t.Errorf("Method = %v, want falsifying", v.Result.Method)
	}
	if v.Evidence == nil || v.Evidence.Samples == 0 {
		t.Fatalf("want sampling evidence, got %+v", v.Evidence)
	}
	// On an instance with abundant falsifying repairs the sampler finds a
	// conclusive witness even without the exact search.
	v2, err := p.Degraded(context.Background(), db.MustParse("R0(a | b), R0(a | c)"), Options{DegradeSamples: 50, SampleSeed: 3})
	if err != nil {
		t.Fatalf("Degraded: %v", err)
	}
	if v2.Outcome != OutcomeNotCertain || v2.Err != nil || v2.Evidence.FalsifyingSample == nil {
		t.Fatalf("want a conclusive sampled witness, got %+v", v2)
	}
	assertVerdictEqual(t, roundTrip(t, v), v)
}
