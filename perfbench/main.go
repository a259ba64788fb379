// Command perfbench is the repository benchmark. It drives one workload
// from one process against the repo's internal packages and prints, as its
// last line, one JSON object with the run's end-to-end metrics (--trace 0)
// or per-layer metrics (--trace 1). Build and run it through run.sh from
// the root of a checkout:
//
//	bash perfbench/run.sh --workload pca-describe --seed 1 --seconds 20 --trace 0
//
// Every op builds a fresh system named by identifiers drawn from the seed,
// so the work per op does not shrink as process-global memos warm, and
// every op's output is checked against a reference. See workloads.go for
// the four workloads and why each was chosen.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// setupRuns is how many times each run sets the workload up; setup_s is
// the median.
const setupRuns = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	drift      float64 // see window.drift
	tailBeyond int     // samples beyond the op_tail_ms percentile
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: pca-describe | session-emulate | exact-simulate | job-serve")
	seed := fs.Uint64("seed", 1, "seed the inputs are drawn from")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, summary, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprint(stdout, summary)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// opSample is one op: when it started (since the window began), how long
// it took, and whether it failed.
type opSample struct {
	start, dur time.Duration
	failed     bool
}

// window is one closed-loop measurement.
type window struct {
	samples   []opSample // in start order
	attempted int64
	failed    int64
	firstErr  error
	elapsed   time.Duration
	rt        rtDelta
	counters  map[string]int64
}

// runWindow runs one closed-loop client until dur has passed (dur > 0) or
// maxOps ops have run (maxOps > 0). One client keeps the load within a
// 2-CPU host: the engine's pool and the garbage collector use the other
// CPU, and a second client would make the run measure CPU contention with
// them and with the host's other tenants.
func runWindow(inst instance, dur time.Duration, maxOps int64, tr *tracer, opSeq *atomic.Int64) *window {
	w := &window{}
	c0 := counterSnapshot()
	rt0 := readRuntime()
	t0 := time.Now()
	for (dur <= 0 || time.Since(t0) < dur) && (maxOps <= 0 || w.attempted < maxOps) {
		o := &opCtx{id: opSeq.Add(1), tr: tr}
		root := tr.begin(o.id, 0, "op")
		o.span = root.id
		s := time.Now()
		err := inst.op(o)
		d := time.Since(s)
		root.end()
		w.samples = append(w.samples, opSample{start: s.Sub(t0), dur: d, failed: err != nil})
		w.attempted++
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
		}
	}
	w.elapsed = time.Since(t0)
	w.rt = readRuntime().sub(rt0)
	w.counters = counterDelta(c0, counterSnapshot())
	return w
}

func (w *window) opsPerSec() float64 {
	return float64(w.attempted-w.failed) / w.elapsed.Seconds()
}

// latencies returns the op durations in ms, sorted.
func (w *window) latencies() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = float64(s.dur.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of sorted xs, with the number
// of samples beyond it.
func percentile(sorted []float64, pct float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(pct / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 50)
	return v
}

// drift is the ratio of the last quarter's median op latency to the first
// quarter's; process-global state that grows over a run shows as a drift
// away from 1.
func (w *window) drift() float64 {
	n := len(w.samples)
	if n < 8 {
		return math.NaN()
	}
	q := n / 4
	med := func(ss []opSample) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = float64(s.dur)
		}
		return median(xs)
	}
	return med(w.samples[n-q:]) / med(w.samples[:q])
}

// quarterRates is the completed-op rate in each quarter of the window, by
// op start time: a host that changes speed within a run shows here.
func (w *window) quarterRates() string {
	var n [4]int
	q := w.elapsed / 4
	for _, s := range w.samples {
		if !s.failed {
			n[min(int(s.start/q), 3)]++
		}
	}
	out := make([]string, 4)
	for i, c := range n {
		out[i] = fmt.Sprintf("%.4g", float64(c)/q.Seconds())
	}
	return strings.Join(out, " ")
}

// rtDelta is the change in the Go runtime's counters over a window.
type rtDelta struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // seconds
	busyCPU    float64 // seconds, all CPU classes except idle
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtDelta {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtDelta{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), busyCPU: v(3) - v(4)}
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		busyCPU:    a.busyCPU - b.busyCPU,
	}
}

// setupResult is the instance the measured windows run on, and the set-up
// time of every set-up the run made.
type setupResult struct {
	inst    instance
	times   []float64
	warmErr error
	store   string
}

// setUp builds the workload setupRuns times, each time with fresh inputs
// from the seed, and keeps the last instance. Each set-up covers building
// runners and stores and the untimed warm-up ops.
func setUp(w *workload, e *env, opSeq *atomic.Int64) (*setupResult, error) {
	r := &setupResult{}
	for k := 0; k < setupRuns; k++ {
		runtime.GC()
		t := time.Now()
		inst, err := w.build(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		warm := runWindow(inst, 0, int64(w.warmOps), nil, opSeq)
		r.times = append(r.times, time.Since(t).Seconds())
		if warm.firstErr != nil && r.warmErr == nil {
			r.warmErr = warm.firstErr
		}
		if k == setupRuns-1 {
			r.inst = inst
			if j, ok := inst.(*jobServe); ok {
				r.store = j.dir
			}
			break
		}
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	return r, nil
}

// bench runs one workload and returns its result line and a human-readable
// summary.
func bench(w *workload, seed uint64, dur time.Duration, traced bool, dir string) (*result, string, error) {
	e := &env{ids: newIDGen(seed), dir: dir}
	if traced {
		e.tr = newTracer()
	}
	var opSeq atomic.Int64
	su, err := setUp(w, e, &opSeq)
	if err != nil {
		return nil, "", err
	}
	host := stamp(su.store)
	var sb strings.Builder
	fmt.Fprintf(&sb, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, seed, dur.Seconds(), traced)
	fmt.Fprintf(&sb, "host %s\n", host)

	res := &result{Metrics: map[string]metric{}}
	var wins []*window
	if !traced {
		runtime.GC()
		win := runWindow(su.inst, dur, 0, nil, &opSeq)
		endToEnd(res, &sb, w, su, win)
		wins = []*window{win}
	} else {
		wins, err = traceRun(res, &sb, w, e, su, dur, &opSeq, host, seed, dir)
		if err != nil {
			return nil, "", errors.Join(err, su.inst.close())
		}
	}
	if err := su.inst.close(); err != nil {
		return nil, "", err
	}
	errs := []error{su.warmErr}
	for _, win := range wins {
		res.Attempted += win.attempted
		res.Failed += win.failed
		errs = append(errs, win.firstErr)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && su.warmErr == nil
	fmt.Fprintf(&sb, "fail_frac %.6g (%d of %d ops)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, e := range errs {
		if e != nil {
			fmt.Fprintf(&sb, "error: %v\n", e)
		}
	}
	return res, sb.String(), nil
}

// endToEnd fills the end-to-end metrics of an untraced window.
func endToEnd(res *result, sb *strings.Builder, w *workload, su *setupResult, win *window) {
	lat := win.latencies()
	p50, _ := percentile(lat, 50)
	tail, beyond := percentile(lat, w.tailPct)
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(sb, "error: peak RSS: %v\n", err)
	}
	set := func(name, unit string, v float64, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(sb, "%-16s %14.6g %-6s %s\n", name, v, unit, note)
	}
	set("setup_s", "s", median(su.times), fmt.Sprintf("median of %d set-ups", len(su.times)))
	set("ops_per_s", "1/s", win.opsPerSec(), "one client, closed loop")
	set("op_p50_ms", "ms", p50, fmt.Sprintf("n=%d", len(lat)))
	set("op_tail_ms", "ms", tail, fmt.Sprintf("p%g, %d samples beyond", w.tailPct, beyond))
	set("alloc_mb_per_op", "MB", win.rt.allocBytes/1e6/float64(max(win.attempted, 1)), "")
	set("peak_rss_mb", "MB", rss, "VmHWM")
	p90, _ := percentile(lat, 90)
	p99, _ := percentile(lat, 99)
	p999, _ := percentile(lat, 99.9)
	top, _ := percentile(lat, 100)
	fmt.Fprintf(sb, "latency_ms p90=%.4g p99=%.4g p99.9=%.4g max=%.4g\n", p90, p99, p999, top)
	res.drift, res.tailBeyond = win.drift(), beyond
	fmt.Fprintf(sb, "drift %.4f (last/first quarter median op latency)\n", res.drift)
	fmt.Fprintf(sb, "ops_per_s by quarter %s\n", win.quarterRates())
	if beyond < 10 {
		fmt.Fprintf(sb, "warning: only %d samples beyond p%g; the tail is not resolved\n", beyond, w.tailPct)
	}
}

// traceRun measures half the time untraced and half traced (spans, counter
// deltas, runtime metrics and a CPU profile), and fills the per-layer
// metrics. It returns both windows.
func traceRun(res *result, sb *strings.Builder, w *workload, e *env, su *setupResult, dur time.Duration,
	opSeq *atomic.Int64, host hostStamp, seed uint64, dir string) ([]*window, error) {
	runtime.GC()
	base := runWindow(su.inst, dur/2, 0, nil, opSeq)
	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	e.tr.on.Store(true)
	win := runWindow(su.inst, dur/2, 0, e.tr, opSeq)
	e.tr.on.Store(false)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	layers := layerMetrics(base, win, attribute(stacks), e.tr)
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.Metrics[n] = layers[n]
		fmt.Fprintf(sb, "%-34s %14.6g %s\n", n, layers[n].Value, layers[n].Unit)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed)))
	if err != nil {
		return nil, err
	}
	if err := e.tr.writeJSONL(f, host, w.name, seed); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(sb, "spans written to %s\n", f.Name())
	return []*window{base, win}, nil
}

// perLayer lists every per-layer metric with its unit; every traced run
// reports all of them, zero where a workload does not reach the layer.
func perLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, m := range modules {
		add(m+".self_frac", "frac")
	}
	for _, m := range inclusiveModules {
		add(m+".incl_frac", "frac")
	}
	add("runtime.gc.self_frac", "frac")
	add("other.self_frac", "frac")
	add("layers.coverage_frac", "frac")
	add("profile.samples", "count")
	add("runtime.gc_cpu_frac", "frac")
	add("runtime.gc_cycles_per_op", "count")
	for _, s := range spanMetrics {
		add(s.metric, "ms")
	}
	add("sched.measure_ms", "ms")
	add("sched.barrier_wait_ms", "ms")
	add("sched.shard_imbalance", "ratio")
	add("psioa.explore.calls_per_op", "count")
	add("psioa.explore.states_per_op", "count")
	add("psioa.sortmemo.hit_ratio", "ratio")
	add("sched.measure.steps_per_op", "count")
	add("core.implements.pairs_per_op", "count")
	add("engine.cache.hit_ratio", "ratio")
	add("durable.journal.appends_per_op", "count")
	add("trace_overhead_frac", "frac")
	return out
}

// spanMetrics maps span names to the per-op mean time reported for them.
var spanMetrics = []struct{ span, metric string }{
	{"op", "op.self_ms"},
	{"protocols.build", "protocols.build_ms"},
	{"pca.compose", "pca.compose_ms"},
	{"bounded.describe", "bounded.describe_ms"},
	{"core.emulate", "core.emulate_ms"},
	{"engine.run", "engine.run_ms"},
	{"engine.queue_wait", "engine.queue_wait_ms"},
	{"engine.notify", "engine.notify_ms"},
	{"engine.readback", "engine.readback_ms"},
	{"durable.sink", "durable.sink_ms"},
	{"durable.store.save", "durable.store.save_ms"},
	{"durable.store.load", "durable.store.load_ms"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func layerMetrics(base, win *window, at attribution, tr *tracer) map[string]metric {
	units := map[string]string{}
	for _, m := range perLayer() {
		units[m.name] = m.unit
	}
	v := map[string]float64{}
	for _, m := range modules {
		v[m+".self_frac"] = at.frac(at.self[m])
	}
	for _, m := range inclusiveModules {
		v[m+".incl_frac"] = at.frac(at.incl[m])
	}
	v["runtime.gc.self_frac"] = at.frac(at.self[gcLayer])
	v["other.self_frac"] = at.frac(at.self["other"])
	v["layers.coverage_frac"] = at.coverage()
	v["profile.samples"] = float64(at.total)
	ops := float64(max(win.attempted, 1))
	v["runtime.gc_cpu_frac"] = ratio(win.rt.gcCPU, win.rt.busyCPU)
	v["runtime.gc_cycles_per_op"] = win.rt.gcCycles / ops
	totals := tr.totals()
	for _, s := range spanMetrics {
		t := totals[s.span]
		us := t.incl
		if s.span == "op" {
			us = t.self
		}
		v[s.metric] = us / 1e3 / ops
	}
	tr.mu.Lock()
	rep := tr.reports
	tr.mu.Unlock()
	v["sched.measure_ms"] = float64(rep.measureUS) / 1e3 / ops
	v["sched.barrier_wait_ms"] = float64(rep.barrierUS) / 1e3 / ops
	v["sched.shard_imbalance"] = ratio(rep.imbalanceSum, float64(rep.imbalanceN))
	c := func(n string) float64 { return float64(win.counters[n]) }
	v["psioa.explore.calls_per_op"] = c("psioa.explore.calls") / ops
	v["psioa.explore.states_per_op"] = c("psioa.explore.states") / ops
	v["psioa.sortmemo.hit_ratio"] = ratio(c("psioa.sortmemo.hits"), c("psioa.sortmemo.hits")+c("psioa.sortmemo.misses"))
	v["sched.measure.steps_per_op"] = c("sched.measure.steps") / ops
	v["core.implements.pairs_per_op"] = c("core.implements.pairs") / ops
	v["engine.cache.hit_ratio"] = ratio(c("engine.cache.hits"), c("engine.cache.hits")+c("engine.cache.misses"))
	v["durable.journal.appends_per_op"] = c("dsed.journal.appended") / ops
	v["trace_overhead_frac"] = 1 - ratio(win.opsPerSec(), base.opsPerSec())
	out := make(map[string]metric, len(v))
	for n, x := range v {
		u, ok := units[n]
		if !ok {
			panic("perfbench: per-layer metric " + n + " is not listed in perLayer")
		}
		out[n] = metric{Value: x, Unit: u}
	}
	return out
}
