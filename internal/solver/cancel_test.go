package solver

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
)

// oddRingDB builds an instance of q0 = {R0(x|y), S0(y,z|x)} over a ring of n
// "pigeons" x0..x{n-1}: each pigeon's R0 block picks a color A or B, and for
// each color the S0 block (c, zi) must attack xi or its successor x{i+1}. A
// falsifying repair assigns every pigeon a color not attacked by either
// neighboring S0 block of that color, which forces adjacent pigeons onto
// different colors — a proper 2-coloring of the ring. Hence the instance is
// certain iff n is odd, and the falsifying search must traverse the whole
// ring (≈6n nodes) before it can conclude either way.
func oddRingDB(n int) *db.DB {
	d := db.New()
	add := func(f db.Fact) {
		if err := d.Add(f); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		xi := fmt.Sprintf("x%d", i)
		xn := fmt.Sprintf("x%d", (i+1)%n)
		zi := fmt.Sprintf("z%d", i)
		add(db.NewFact("R0", 1, xi, "A"))
		add(db.NewFact("R0", 1, xi, "B"))
		add(db.NewFact("S0", 2, "A", zi, xi))
		add(db.NewFact("S0", 2, "A", zi, xn))
		add(db.NewFact("S0", 2, "B", zi, xi))
		add(db.NewFact("S0", 2, "B", zi, xn))
	}
	return d
}

func TestOddRingParity(t *testing.T) {
	q := cq.Q0()
	if got, err := CertainByFalsifying(context.Background(), q, oddRingDB(5)); err != nil || !got {
		t.Errorf("odd ring should be certain (no proper 2-coloring of C5): got %v, %v", got, err)
	}
	if got, err := CertainByFalsifying(context.Background(), q, oddRingDB(6)); err != nil || got {
		t.Errorf("even ring should not be certain (C6 is 2-colorable): got %v, %v", got, err)
	}
}

// TestFaultInjectionCancelsSearch drives every context-aware decision
// procedure with the governor's fault hook, making cancellation strike
// deterministically mid-search, and asserts the injected error surfaces.
func TestFaultInjectionCancelsSearch(t *testing.T) {
	q0 := cq.Q0()
	ring := oddRingDB(9)
	// CertainFO refuses strong-cycle queries like q0, so the FO case runs a
	// primary-key query over enough blocks to guarantee several steps.
	qFO := cq.MustParseQuery("R(x | y)")
	dFO := db.MustParse("R(a | b), R(a | c), R(d | e), R(d | f), R(g | h), R(g | i)")
	// C(2) has no unattacked atom, so its recursion is a single leaf: after
	// the entry step, every step is charged by the base case's purification
	// or evaluation.
	qC2 := cq.Ck(2)
	dC2 := db.MustParse("R1(a | b), R1(a | c), R2(b | a), R2(c | a), R1(d | e), R2(e | d)")
	cases := []struct {
		name    string
		faultAt int64
		run     func(ctx context.Context) error
	}{
		{"BruteForceCtx", 5, func(ctx context.Context) error {
			_, err := BruteForceCtx(ctx, q0, ring)
			return err
		}},
		{"CertainByFalsifyingCtx", 5, func(ctx context.Context) error {
			_, err := CertainByFalsifying(ctx, q0, ring)
			return err
		}},
		{"FalsifyingRepairContext", 5, func(ctx context.Context) error {
			_, _, err := FalsifyingRepair(ctx, q0, ring)
			return err
		}},
		{"CertainFOCtx", 1, func(ctx context.Context) error {
			_, err := CertainFO(ctx, qFO, dFO)
			return err
		}},
		{"CertainTerminal", 4, func(ctx context.Context) error {
			_, err := CertainTerminal(ctx, qC2, dC2)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			boom := errors.New("injected fault")
			g := govern.New(context.Background(), govern.Options{
				Fault: func(step int64) error {
					if step >= tc.faultAt {
						return boom
					}
					return nil
				},
			})
			defer g.Close()
			err := tc.run(g.Attach())
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the injected fault", err)
			}
			if g.Steps() < tc.faultAt {
				t.Fatalf("search stopped after %d steps, before the fault could fire", g.Steps())
			}
		})
	}
}

// TestFalsifyingRepairStaticBudgetAndFault: the static-order search of the
// ordering ablation runs under the same governor as the dispatched one, so
// a step budget and the fault hook both stop it mid-search.
func TestFalsifyingRepairStaticBudgetAndFault(t *testing.T) {
	q0 := cq.Q0()
	ring := oddRingDB(9)
	boom := errors.New("injected fault")
	cases := []struct {
		name string
		opts govern.Options
		want error
	}{
		{"budget", govern.Options{Budget: 5}, govern.ErrBudget},
		{"fault", govern.Options{Fault: func(step int64) error {
			if step >= 5 {
				return boom
			}
			return nil
		}}, boom},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := govern.New(context.Background(), tc.opts)
			defer g.Close()
			_, _, err := FalsifyingRepairStatic(g.Attach(), q0, ring)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if g.Steps() < 5 || g.Steps() > 6 {
				t.Fatalf("search stopped after %d steps, want the 5th or 6th", g.Steps())
			}
		})
	}
}

// TestCanceledContextSurfaces verifies that an already-canceled context makes
// every context-aware procedure return context.Canceled rather than compute.
func TestCanceledContextSurfaces(t *testing.T) {
	q := cq.Q0()
	d := oddRingDB(9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"BruteForceCtx", func(ctx context.Context) error {
			_, err := BruteForceCtx(ctx, q, d)
			return err
		}},
		{"CertainByFalsifyingCtx", func(ctx context.Context) error {
			_, err := CertainByFalsifying(ctx, q, d)
			return err
		}},
		{"CertainFOCtx", func(ctx context.Context) error {
			_, err := CertainFO(ctx, q, d)
			return err
		}},
		{"CertainTerminalCtx", func(ctx context.Context) error {
			_, err := CertainTerminal(ctx, cq.MustParseQuery("R(x | y), S(y | z)"), db.MustParse("R(a | b), S(b | c)"))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// CheckEvery: 1 makes the poll immediate, so the assertion does
			// not depend on the instance being large enough to reach the
			// default polling interval.
			g := govern.New(ctx, govern.Options{CheckEvery: 1})
			defer g.Close()
			err := tc.run(g.Attach())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestCancellationLatency is the wall-clock half of the acceptance criterion:
// a brute-force enumeration over 2^60 repairs (which would run for centuries
// uncancelled) must return within moments of its 50ms deadline.
func TestCancellationLatency(t *testing.T) {
	// Sixty two-fact blocks, and a query every repair satisfies, so the
	// enumeration cannot stop early on a falsifying repair — certainty
	// requires visiting all 2^60 of them.
	d := db.New()
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := d.Add(db.NewFact("R", 1, k, "a")); err != nil {
			t.Fatal(err)
		}
		if err := d.Add(db.NewFact("R", 1, k, "b")); err != nil {
			t.Fatal(err)
		}
	}
	q := cq.MustParseQuery("R(x | y)")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := BruteForceCtx(ctx, q, d)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("took %v to notice a 50ms deadline", elapsed)
	}
}

// TestSolveCtxBudgetDegradesToSampling is the degradation half of the
// acceptance criterion: budget exhaustion on a coNP-classified instance must
// yield an Unknown verdict carrying partial search evidence and a sampled
// repair-satisfaction estimate. The odd ring is certain and needs ≈6n search
// nodes, so a budget of 60 on n=21 (≈121 nodes) cuts off deterministically,
// and the sampler — unable to find a falsifying repair of a certain instance
// — reports estimate 1 without upgrading the verdict.
func TestSolveCtxBudgetDegradesToSampling(t *testing.T) {
	q := cq.Q0()
	d := oddRingDB(21)
	v, err := SolveCtx(context.Background(), q, d, Options{
		Budget:         60,
		DegradeSamples: 200,
		SampleSeed:     1,
	})
	if err != nil {
		t.Fatalf("SolveCtx: %v", err)
	}
	if v.Outcome != OutcomeUnknown {
		t.Fatalf("Outcome = %v, want unknown", v.Outcome)
	}
	if !errors.Is(v.Err, govern.ErrBudget) {
		t.Fatalf("Verdict.Err = %v, want ErrBudget", v.Err)
	}
	if v.Result.Method != MethodFalsifying {
		t.Fatalf("Method = %v, want falsifying", v.Result.Method)
	}
	ev := v.Evidence
	if ev == nil {
		t.Fatal("Unknown verdict without evidence")
	}
	if ev.Steps < 60 {
		t.Errorf("Steps = %d, want >= the 60-step budget", ev.Steps)
	}
	if ev.TotalBlocks == 0 {
		t.Error("TotalBlocks = 0, want the falsifying search space size")
	}
	if ev.BestDepth == 0 || len(ev.BestCandidate) != ev.BestDepth {
		t.Errorf("BestDepth = %d with %d candidate facts; want a consistent non-empty partial candidate",
			ev.BestDepth, len(ev.BestCandidate))
	}
	if ev.Samples != 200 {
		t.Errorf("Samples = %d, want 200", ev.Samples)
	}
	if ev.Estimate != 1.0 {
		t.Errorf("Estimate = %v, want exactly 1 on a certain instance", ev.Estimate)
	}
	if ev.FalsifyingSample != nil {
		t.Errorf("sampled a falsifying repair of a certain instance: %v", ev.FalsifyingSample)
	}
}

// TestSolveCtxSamplingUpgradesToNotCertain: when the cut-off instance is not
// certain and falsifying repairs are abundant, the degradation sampler finds
// one, which is a conclusive witness — the verdict upgrades from Unknown to
// NotCertain.
func TestSolveCtxSamplingUpgradesToNotCertain(t *testing.T) {
	q := cq.Q0()
	// No S0 facts at all, so every repair falsifies q0. The fault hook trips
	// the search on its very first step, before it can find that out.
	d := db.MustParse("R0(a | b), R0(a | c)")
	boom := errors.New("injected fault")
	v, err := SolveCtx(context.Background(), q, d, Options{
		Fault:          func(int64) error { return boom },
		DegradeSamples: 50,
		SampleSeed:     3,
	})
	if err != nil {
		t.Fatalf("SolveCtx: %v", err)
	}
	if v.Outcome != OutcomeNotCertain {
		t.Fatalf("Outcome = %v, want not certain (sampled witness)", v.Outcome)
	}
	if v.Err != nil {
		t.Fatalf("Verdict.Err = %v, want nil once a conclusive witness exists", v.Err)
	}
	if v.Result.Certain {
		t.Fatal("Result.Certain = true on a falsified instance")
	}
	if v.Evidence == nil || v.Evidence.FalsifyingSample == nil {
		t.Fatal("missing the sampled falsifying repair")
	}
}

// TestSolveCtxPanicContained: a panic escaping from deep inside the governed
// search (here: a panicking fault hook) must come back as an error, not crash
// the process.
func TestSolveCtxPanicContained(t *testing.T) {
	q := cq.Q0()
	d := oddRingDB(5)
	_, err := SolveCtx(context.Background(), q, d, Options{
		Fault: func(int64) error { panic("kaboom") },
	})
	var pe *govern.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a contained PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("PanicError.Value = %v, want kaboom", pe.Value)
	}
}

// TestSolveCtxUnlimitedMatchesSolve: with zero options, SolveCtx is the
// plain decision plus governance plumbing — outcomes must agree with
// brute-force enumeration.
func TestSolveCtxUnlimitedMatchesSolve(t *testing.T) {
	cases := []struct {
		name string
		q    cq.Query
		d    *db.DB
	}{
		{"odd ring (coNP, certain)", cq.Q0(), oddRingDB(5)},
		{"even ring (coNP, not certain)", cq.Q0(), oddRingDB(6)},
		{"FO", cq.MustParseQuery("R(x | y)"), db.MustParse("R(a | b), R(a | c), R(d | e)")},
		{"terminal", cq.MustParseQuery("R(x | y), S(y | z)"), db.MustParse("R(a | b), R(a | c), S(b | d), S(c | d)")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := BruteForce(tc.q, tc.d)
			v, err := SolveCtx(context.Background(), tc.q, tc.d, Options{})
			if err != nil {
				t.Fatalf("SolveCtx: %v", err)
			}
			if v.Outcome == OutcomeUnknown {
				t.Fatalf("unlimited solve returned unknown (err %v)", v.Err)
			}
			if v.Result.Certain != want {
				t.Fatalf("Certain = %v, brute force says %v", v.Result.Certain, want)
			}
			if (v.Outcome == OutcomeCertain) != want {
				t.Fatalf("Outcome %v disagrees with Certain=%v", v.Outcome, want)
			}
		})
	}
}
