package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed interval around a call the benchmark makes into a
// layer. Spans of one op share Op; Parent is the enclosing span's ID (0 for
// an op's root, and for spans recorded inside the program's own goroutines,
// which the benchmark cannot tie to an op). Times are microseconds since
// the tracer started.
type span struct {
	Op     int64   `json:"op"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, as it is while on is false.
type tracer struct {
	t0 time.Time
	// on gates recording, so wrappers built into a workload at set-up
	// record only inside the traced window.
	on      atomic.Bool
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	reports reportTotals
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end records it.
type spanRef struct {
	t      *tracer
	op, id int64
	parent int64
	name   string
	start  time.Time
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) begin(op, parent int64, name string) spanRef {
	if !t.active() {
		return spanRef{}
	}
	return spanRef{t: t, op: op, id: t.next.Add(1), parent: parent, name: name, start: time.Now()}
}

func (s spanRef) end() {
	if s.t != nil {
		s.t.record(s.op, s.id, s.parent, s.name, s.start, time.Now())
	}
}

// add records a span whose bounds were observed elsewhere, such as the
// timestamps on an engine.JobRecord.
func (t *tracer) add(op, parent int64, name string, start, end time.Time) {
	if t.active() {
		t.record(op, t.next.Add(1), parent, name, start, end)
	}
}

func (t *tracer) record(op, id, parent int64, name string, start, end time.Time) {
	s := span{
		Op: op, ID: id, Parent: parent, Name: name,
		Start: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanTotals is the summed inclusive and self time of every span of one
// name, in microseconds.
type spanTotals struct {
	incl, self float64
}

// totals sums each span name's inclusive time and its self time: the
// span's duration minus the part of it that its child spans cover.
func (t *tracer) totals() map[string]spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanTotals{}
	for _, s := range t.spans {
		agg := out[s.Name]
		agg.incl += s.End - s.Start
		agg.self += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = agg
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, curS, curE := 0.0, kids[0].Start, kids[0].End
	flush := func() {
		s, e := max(curS, parent.Start), min(curE, parent.End)
		if e > s {
			total += e - s
		}
	}
	for _, k := range kids[1:] {
		if k.Start > curE {
			flush()
			curS, curE = k.Start, k.End
			continue
		}
		curE = max(curE, k.End)
	}
	flush()
	return total
}

// writeJSONL writes the host stamp and then every span, one JSON object a
// line.
func (t *tracer) writeJSONL(w io.Writer, host hostStamp, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": host, "workload": workload, "seed": seed}); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// workCounters are the obs.Default counters whose per-op deltas measure
// how much work each layer did.
var workCounters = []string{
	"psioa.explore.calls",
	"psioa.explore.states",
	"psioa.explore.transitions",
	"psioa.compose.calls",
	"psioa.sortmemo.hits",
	"psioa.sortmemo.misses",
	"sched.measure.calls",
	"sched.measure.steps",
	"core.implements.pairs",
	"insight.probe.calls",
	"engine.cache.hits",
	"engine.cache.misses",
	"dsed.journal.appended",
}

// counterSnapshot reads workCounters in order.
func counterSnapshot() []int64 {
	out := make([]int64, len(workCounters))
	for i, n := range workCounters {
		out[i] = obs.C(n).Value()
	}
	return out
}

// counterDelta returns after − before keyed by counter name.
func counterDelta(before, after []int64) map[string]int64 {
	out := make(map[string]int64, len(workCounters))
	for i, n := range workCounters {
		out[n] = after[i] - before[i]
	}
	return out
}

// reportTotals sums the engine RunReports of the traced ops.
type reportTotals struct {
	measureUS    int64
	barrierUS    int64
	imbalanceSum float64
	imbalanceN   int64
}

// report adds one job's RunReport: its sched.measure phase wall time,
// barrier wait and shard imbalance.
func (t *tracer) report(r *obs.RunReport) {
	if !t.active() || r == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range r.Phases {
		if strings.HasPrefix(p.Name, "sched.measure") {
			t.reports.measureUS += p.WallUS
		}
	}
	t.reports.barrierUS += r.BarrierWaitUS
	if r.ShardImbalance > 0 {
		t.reports.imbalanceSum += r.ShardImbalance
		t.reports.imbalanceN++
	}
}
