package sched_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// parallelWorkloads enumerates (automaton, scheduler, depth) triples covering
// every built-in scheduler schema, with wide frontiers and depth 0.
func parallelWorkloads() []struct {
	name     string
	a        psioa.PSIOA
	s        sched.Scheduler
	maxDepth int
} {
	w := testaut.RandomWalk("w", 5, 0.5)
	c := psioa.MustCompose(testaut.OpenCoin("x", 0.25), testaut.CoinEnv("x"))
	step, hit := psioa.Action("step_w"), psioa.Action("hit_w")
	return []struct {
		name     string
		a        psioa.PSIOA
		s        sched.Scheduler
		maxDepth int
	}{
		{"greedy/walk", w, &sched.Greedy{A: w, Bound: 9}, 12},
		{"random/walk", w, &sched.Random{A: w, Bound: 8}, 10},
		{"sequence/walk", w, &sched.Sequence{A: w, Acts: []psioa.Action{step, step, step, step, step, step, step, hit}}, 10},
		{"priority/walk", w, &sched.Priority{A: w, Order: []psioa.Action{step, hit}, Bound: 8}, 10},
		{"mix/walk", w, &sched.Mix{
			Weights: []float64{0.5, 0.25},
			Inner:   []sched.Scheduler{&sched.Greedy{A: w, Bound: 8}, &sched.Random{A: w, Bound: 8}},
		}, 10},
		{"bounded(random)/walk", w, &sched.Bounded{Inner: &sched.Random{A: w, Bound: 20}, B: 7}, 10},
		{"random/coins", c, &sched.Random{A: c, Bound: 6, LocalOnly: true}, 8},
		{"greedy/depth0", w, &sched.Greedy{A: w, Bound: 4}, 0},
	}
}

// TestParallelMeasureByteIdentical: for every built-in scheduler schema,
// depth and worker count, MeasureOpts renders byte-identically to
// MeasureCtx — the worker count never changes the exact measure.
func TestParallelMeasureByteIdentical(t *testing.T) {
	for _, tc := range parallelWorkloads() {
		want, err := sched.MeasureCtx(context.Background(), tc.a, tc.s, tc.maxDepth, nil)
		if err != nil {
			t.Fatalf("%s: sequential: %v", tc.name, err)
		}
		ref := testaut.RenderMeasure(want)
		for _, workers := range []int{1, 2, 4, 8} {
			em, err := sched.MeasureOpts(context.Background(), tc.a, tc.s, tc.maxDepth, nil,
				sched.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if got := testaut.RenderMeasure(em); got != ref {
				t.Errorf("%s workers=%d: MeasureOpts not byte-identical to MeasureCtx", tc.name, workers)
			}
		}
	}
}

// TestParallelSampleImageWorkerInvariant pins the substream design: the
// sampled image distribution is identical for every worker count, and the
// caller's stream advances by exactly one draw regardless of n.
func TestParallelSampleImageWorkerInvariant(t *testing.T) {
	w := testaut.RandomWalk("w", 5, 0.5)
	s := &sched.Random{A: w, Bound: 8}
	traceKey := func(f *psioa.Frag) string { return f.TraceKey(w) }
	var ref string
	for _, workers := range []int{1, 2, 4, 8} {
		st := rng.New(42)
		d, err := sched.SampleImageOpts(context.Background(), w, s, st, 10, 500, traceKey, nil,
			sched.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := testaut.RenderDist(d)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Errorf("workers=%d: sampled distribution depends on worker count", workers)
		}
	}
	// Stream advancement: SampleImageOpts consumes exactly one draw.
	a, b := rng.New(7), rng.New(7)
	a.Uint64()
	if _, err := sched.SampleImageOpts(context.Background(), w, s, b, 8, 32, traceKey, nil,
		sched.Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if a.Uint64() != b.Uint64() {
		t.Error("SampleImageOpts must advance the caller stream by exactly one draw")
	}
}

// TestParallelMeasureBudgetPartial pins graceful degradation through
// MeasureOpts at any worker count: a budget stop returns the work expanded
// so far, an exact sub-probability prefix of ε_σ.
func TestParallelMeasureBudgetPartial(t *testing.T) {
	w := testaut.RandomWalk("w", 6, 0.5)
	s := &sched.Greedy{A: w, Bound: 14}
	full, err := sched.Measure(w, s, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		bud := resilience.NewBudget(0, 500, 0)
		em, err := sched.MeasureOpts(nil, w, s, 20, bud, sched.Options{Workers: workers})
		if !resilience.IsBudget(err) {
			t.Fatalf("workers=%d: err = %v, want budget", workers, err)
		}
		if em == nil {
			t.Fatalf("workers=%d: budget stop should return the partial measure", workers)
		}
		if tot := em.Total(); tot <= 0 || tot >= full.Total() {
			t.Errorf("workers=%d: partial total = %v, want in (0, %v)", workers, tot, full.Total())
		}
		em.ForEach(func(f *psioa.Frag, p float64) {
			if fp := full.P(f); fp != p {
				t.Errorf("workers=%d: partial mass of %v = %v, full measure has %v", workers, f, p, fp)
			}
		})
	}
}

// TestParallelSampleImageNoPartials mirrors the sequential sampler's
// contract: estimates are unbiased only at the full sample count, so any
// interruption returns nil with the classified error.
func TestParallelSampleImageNoPartials(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	s := &sched.Greedy{A: c, Bound: 5}
	fragKey := func(f *psioa.Frag) string { return f.Key() }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := sched.SampleImageOpts(ctx, c, s, rng.New(1), 10, 5000, fragKey, nil, sched.Options{Workers: 4})
	if d != nil || !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("cancelled = (%v, %v), want (nil, ErrCancelled)", d, err)
	}
	d, err = sched.SampleImageOpts(nil, c, s, rng.New(1), 10, 5000, fragKey,
		resilience.NewBudget(100, 0, 0), sched.Options{Workers: 4})
	if d != nil || !resilience.IsBudget(err) {
		t.Fatalf("budgeted = (%v, %v), want (nil, budget)", d, err)
	}
}

// settleGoroutines polls until the goroutine count returns to at most base
// or the deadline passes, absorbing scheduler lag.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines did not settle: %d running, want <= %d", n, base)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosParallelMeasureCancel cancels the context from inside a scheduler
// choice mid-expansion: MeasureOpts must return the ErrCancelled sentinel
// with no partial measure and leak no goroutines.
func TestChaosParallelMeasureCancel(t *testing.T) {
	w := testaut.RandomWalk("w", 6, 0.5)
	inner := &sched.Random{A: w, Bound: 12}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &sched.FuncSched{ID: "cancel-at-4", Fn: func(f *psioa.Frag) *sched.Choice {
		if f.Len() == 4 {
			cancel() // fired mid-expansion: 16 fragments reach depth 4
		}
		return inner.Choose(f)
	}}
	base := runtime.NumGoroutine()
	em, err := sched.MeasureOpts(ctx, w, s, 16, nil, sched.Options{Workers: 4})
	if !errors.Is(err, resilience.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if em != nil {
		t.Error("cancellation must not return a partial measure")
	}
	settleGoroutines(t, base)
}

// TestParallelMeasureRace drives the same expansion from several goroutines
// at once (shared scheduler, shared automaton memos) so the race detector
// can see the full concurrent surface.
func TestParallelMeasureRace(t *testing.T) {
	w := testaut.RandomWalk("w", 5, 0.5)
	s := &sched.Random{A: w, Bound: 8}
	want, err := sched.Measure(w, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			em, err := sched.MeasureOpts(context.Background(), w, s, 10, nil, sched.Options{Workers: 4})
			if err != nil {
				t.Errorf("concurrent MeasureOpts: %v", err)
				return
			}
			if em.Total() != want.Total() || em.Len() != want.Len() {
				t.Error("concurrent MeasureOpts diverged")
			}
		}()
	}
	wg.Wait()
}
