package sched_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// telemetryWorkload is a tree with a wide frontier (2^13 executions), so
// every kernel has real work to account.
func telemetryWorkload() (psioa.PSIOA, sched.Scheduler, int) {
	w := testaut.RandomWalk("w", 8, 0.5)
	return w, &sched.Random{A: w, Bound: 13}, 16
}

// TestMeasureOptsTelemetry checks that a collector threaded through the
// tree kernel records one sched.measure call and the depth reached, that
// the sequential tree kernel records no shard rows, and that collecting
// changes nothing about the result.
func TestMeasureOptsTelemetry(t *testing.T) {
	ctx := context.Background()
	a, s, depth := telemetryWorkload()
	want, err := sched.MeasureCtx(ctx, a, s, depth, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &sched.Stats{}
	got, err := sched.MeasureOpts(ctx, a, s, depth, nil, sched.Options{Workers: 4, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if testaut.RenderMeasure(got) != testaut.RenderMeasure(want) {
		t.Error("telemetered measure differs from MeasureCtx")
	}
	if st.DepthReached() != want.MaxLen() {
		t.Errorf("depth reached = %d, want the measure's max length %d", st.DepthReached(), want.MaxLen())
	}
	if st.Levels() != 0 || len(st.Shards()) != 0 {
		t.Errorf("levels=%d shards=%d, want none from the sequential tree kernel", st.Levels(), len(st.Shards()))
	}
	phases := st.Phases()
	if len(phases) != 1 || phases[0].Name != "sched.measure" || phases[0].Calls != 1 {
		t.Errorf("phases = %+v, want one sched.measure call", phases)
	}
}

// TestSampleTelemetry checks the sampling kernel's per-shard accounting:
// every drawn sample is attributed to exactly one shard.
func TestSampleTelemetry(t *testing.T) {
	ctx := context.Background()
	a, s, depth := telemetryWorkload()
	st := &sched.Stats{}
	const n = 200
	_, err := sched.SampleImageOpts(ctx, a, s, rng.New(7), depth, n,
		func(f *psioa.Frag) string { return f.Key() }, nil, sched.Options{Workers: 4, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	var items int64
	for _, sh := range st.Shards() {
		items += sh.Items
	}
	if items != n {
		t.Errorf("shards account for %d samples, want %d", items, n)
	}
	phases := st.Phases()
	if len(phases) != 1 || phases[0].Name != "sched.sample" {
		t.Errorf("phases = %+v, want one sched.sample row", phases)
	}
}

// TestDagTelemetry checks the DAG kernel records one shard per level and
// its node count, without changing the measure.
func TestDagTelemetry(t *testing.T) {
	ctx := context.Background()
	w := testaut.RandomWalk("w", 6, 0.5)
	s := &sched.Greedy{A: w, Bound: 9}
	want, err := sched.MeasureDAG(ctx, w, s, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &sched.Stats{}
	got, err := sched.MeasureDAGOpts(ctx, w, s, 12, nil, sched.Options{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	final := func(q psioa.State, depth int) string { return fmt.Sprintf("%v@%d", q, depth) }
	if fmt.Sprint(got.Image(final)) != fmt.Sprint(want.Image(final)) {
		t.Error("telemetered DAG measure differs")
	}
	if st.Levels() == 0 || st.DagNodes() == 0 {
		t.Errorf("levels=%d dagNodes=%d, want both > 0", st.Levels(), st.DagNodes())
	}
	phases := st.Phases()
	if len(phases) != 1 || phases[0].Name != "sched.measure.dag" {
		t.Errorf("phases = %+v, want one sched.measure.dag row", phases)
	}
}

// TestStatsSharedAcrossKernels is the race check: one collector shared by
// concurrent kernel calls (the engine shares one Stats per job across every
// pair task) must be safe under -race and lose no work. Half the calls run
// the tree kernel and half the DAG kernel, which records per-level rows.
func TestStatsSharedAcrossKernels(t *testing.T) {
	ctx := context.Background()
	a, s, depth := telemetryWorkload()
	dob, ok := sched.AsDepthOblivious(s)
	if !ok {
		t.Fatal("Random must be depth-oblivious")
	}
	st := &sched.Stats{}
	const calls = 8
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for c := 0; c < calls; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := sched.Options{Workers: 2, Stats: st}
			if c%2 == 0 {
				_, errs[c] = sched.MeasureOpts(ctx, a, s, depth, nil, o)
			} else {
				_, errs[c] = sched.MeasureDAGOpts(ctx, a, dob, depth, nil, o)
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", c, err)
		}
	}
	single := &sched.Stats{}
	if _, err := sched.MeasureDAGOpts(ctx, a, dob, depth, nil, sched.Options{Stats: single}); err != nil {
		t.Fatal(err)
	}
	const dagCalls = calls / 2
	if got, want := st.Levels(), dagCalls*single.Levels(); got != want || got == 0 {
		t.Errorf("shared collector recorded %d levels, want %d (%d DAG calls × %d)", got, want, dagCalls, single.Levels())
	}
	var got, want int64
	for _, sh := range st.Shards() {
		got += sh.Items
	}
	for _, sh := range single.Shards() {
		want += sh.Items
	}
	if got != dagCalls*want {
		t.Errorf("shared collector accounted %d items, want %d", got, dagCalls*want)
	}
	phases := st.Phases()
	if len(phases) != 2 || phases[0].Name != "sched.measure" || phases[0].Calls != calls-dagCalls ||
		phases[1].Name != "sched.measure.dag" || phases[1].Calls != dagCalls {
		t.Errorf("phases = %+v, want %d sched.measure and %d sched.measure.dag calls", phases, calls-dagCalls, dagCalls)
	}
}
