package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram checks that BENCHMARK.json lists exactly the
// workloads the program runs and the metrics it prints, with their units.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	wantLayers := map[string]string{}
	for _, m := range perLayer() {
		wantLayers[m.name] = m.unit
	}
	if !reflect.DeepEqual(layers, wantLayers) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", layers, wantLayers)
	}

	res, _, err := bench(workloads[0], 1, 200*time.Millisecond, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for n, m := range res.Metrics {
		got[n] = m.Unit
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, e2e) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, got)
	}
}

// TestAttribute checks the sample-to-layer rule on hand-made stacks.
func TestAttribute(t *testing.T) {
	a := attribute([]stack{
		{count: 3, funcs: []string{"runtime.mallocgc", "repro/internal/codec.Encode", "repro/internal/pca.(*X).Sig", "repro/internal/bounded.Describe", "main.main"}},
		{count: 2, funcs: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{count: 1, funcs: []string{"syscall.Syscall", "os.(*File).Sync", "repro/internal/protocols/ledger.Host.func1", "repro/internal/psioa.Explore", "repro/internal/psioa.Explore.func1"}},
		{count: 4, funcs: []string{"runtime.futex", "runtime.schedule"}},
	})
	want := map[string]int64{"codec": 3, gcLayer: 2, "protocols": 1, "other": 4}
	if !reflect.DeepEqual(a.self, want) || a.total != 10 {
		t.Errorf("self = %v (total %d), want %v (total 10)", a.self, a.total, want)
	}
	if a.incl["psioa"] != 1 || a.incl["bounded"] != 3 || a.incl["codec"] != 3 {
		t.Errorf("incl = %v", a.incl)
	}
	if got := a.coverage(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("coverage = %v, want 0.6", got)
	}
}

// opCounters runs one op and returns the obs work-counter deltas it
// caused. The sort memo is process-global and periodically reset, so its
// hits and misses are compared as one lookup count.
func opCounters(t *testing.T, run func(o *opCtx) error) map[string]int64 {
	t.Helper()
	before := counterSnapshot()
	if err := run(&opCtx{}); err != nil {
		t.Fatal(err)
	}
	d := counterDelta(before, counterSnapshot())
	d["psioa.sortmemo.lookups"] = d["psioa.sortmemo.hits"] + d["psioa.sortmemo.misses"]
	delete(d, "psioa.sortmemo.hits")
	delete(d, "psioa.sortmemo.misses")
	return d
}

// TestWorkPerOpIsConstant checks that every op of a workload does the same
// work, by the program's own counters, across ops and across two seeds.
// For job-serve it compares fresh and repeated jobs of each class, on a
// one-worker pool: with two workers, a check's exploration count varies
// from run to run with how its concurrent pair tasks interleave, not with
// its inputs.
func TestWorkPerOpIsConstant(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.name == "job-serve" {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			ref := map[string]map[string]int64{}
			same := func(key string, got map[string]int64) {
				if want, ok := ref[key]; !ok {
					ref[key] = got
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: op counters %v, earlier op %v", key, got, want)
				}
			}
			for _, seed := range []uint64{1, 2} {
				e := &env{ids: newIDGen(seed), dir: t.TempDir()}
				inst, err := w.build(e)
				if err != nil {
					t.Fatal(err)
				}
				var seq atomic.Int64
				if warm := runWindow(inst, 0, int64(w.warmOps), nil, &seq); warm.firstErr != nil {
					t.Fatal(warm.firstErr)
				}
				if j, ok := inst.(*jobServe); ok {
					for c := range jobClasses {
						for i := 0; i < 3; i++ {
							s := jobSpec{class: c, job: jobClasses[c].spec(e.ids.next()), first: &firstRun{}}
							same(jobClasses[c].name+" fresh", opCounters(t, func(o *opCtx) error { return j.serve(o, s) }))
							same(jobClasses[c].name+" repeat", opCounters(t, func(o *opCtx) error { return j.serve(o, s) }))
						}
					}
				} else {
					for i := 0; i < 3; i++ {
						same("op", opCounters(t, inst.op))
					}
				}
				if err := inst.close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestTracedRunAttribution checks each workload's traced run: outputs
// correct, every per-layer metric reported, and the named layers plus
// runtime.gc covering at least 90% of CPU samples.
func TestTracedRunAttribution(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, _, err := bench(w, 7, 4*time.Second, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run incorrect: %d of %d ops failed", res.Failed, res.Attempted)
			}
			for _, m := range perLayer() {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			if n := res.Metrics["profile.samples"].Value; n < 100 {
				t.Fatalf("only %v CPU samples", n)
			}
			if c := res.Metrics["layers.coverage_frac"].Value; c < 0.9 && !raceEnabled {
				t.Errorf("named layers cover %.3f of CPU samples, want >= 0.9", c)
			}
		})
	}
}

// TestFullLengthRunIsSteady runs each workload for the benchmark's run
// length and checks that its op latencies do not drift between the first
// and last quarter of the run, and that at least ten samples lie beyond
// the op_tail_ms percentile.
func TestFullLengthRunIsSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for the full run length")
	}
	secs := readSpec(t).RunSeconds
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, _, err := bench(w, 5, time.Duration(secs)*time.Second, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("run incorrect: %d of %d ops failed", res.Failed, res.Attempted)
			}
			if res.tailBeyond < 10 {
				t.Errorf("%d samples beyond p%g, want >= 10", res.tailBeyond, w.tailPct)
			}
			if math.Abs(res.drift-1) > maxDrift {
				t.Errorf("last/first quarter median latency %.3f, want within %.2f of 1", res.drift, maxDrift)
			}
		})
	}
}

// maxDrift is loose for two reasons. The host's own speed moves by 15-20%
// within seconds (a fixed CPU loop on the 2-CPU development host timed
// 34-48 ms from one second to the next). And exact-simulate's ops slow by
// about 15% over the first ~600 ops of a process, longer than a run's
// warm-up can cover, while process-global memos fill towards their caps.
// State that grows without bound shows as a larger, one-sided drift.
const maxDrift = 0.3
