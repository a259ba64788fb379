package sched

import (
	"sync"

	"repro/internal/obs"
)

// Stats collects kernel telemetry for one run (typically one engine job):
// per-phase calls and wall time, the deepest level reached, and per-shard
// work rows from the kernels that shard or level their work — the
// Monte-Carlo sampler (how many samples each shard drew, how long it was
// busy, how long it idled waiting for slower shards) and the DAG kernel
// (one shard per level). The tree kernel is sequential and records only
// its phase and depth. One Stats value may be shared by every kernel call
// a job fans out to — methods are mutex-guarded — and aggregates are keyed
// by shard index, so shard i of every level and every call accumulates
// into one row.
//
// Collection is opt-in: kernels touch the collector (and the clock) only
// when Options.Stats is non-nil or tracing is enabled, so benchmarks with
// neither pay nothing beyond the existing nil check.
type Stats struct {
	mu     sync.Mutex
	levels int64
	depth  int
	shards []obs.ShardStat

	measureCalls, measureWallUS int64
	sampleCalls, sampleWallUS   int64
	dagCalls, dagWallUS         int64
	dagNodes                    int64
}

// recordLevel folds one level's shard outputs into the per-shard rows.
// widths[i] is the index-span width handed to shard i, items[i] the
// samples or DAG nodes it expanded, wallUS[i] its busy time. A shard's
// barrier wait at this level is the gap to the slowest shard of the level
// (max wall - own wall) — the wall time lost to work imbalance, excluding
// the single-threaded merge that follows the barrier. Called once per
// level from the calling goroutine, after its shards have finished.
func (st *Stats) recordLevel(widths, items, wallUS []int64) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.levels++
	var slowest int64
	for _, w := range wallUS {
		if w > slowest {
			slowest = w
		}
	}
	for i := range items {
		for len(st.shards) <= i {
			st.shards = append(st.shards, obs.ShardStat{Shard: len(st.shards)})
		}
		sh := &st.shards[i]
		sh.Levels++
		sh.Items += items[i]
		sh.Width += widths[i]
		sh.WallUS += wallUS[i]
		sh.BarrierWaitUS += slowest - wallUS[i]
	}
}

// recordDepth raises the depth high-water mark.
func (st *Stats) recordDepth(d int) {
	if st == nil {
		return
	}
	st.mu.Lock()
	if d > st.depth {
		st.depth = d
	}
	st.mu.Unlock()
}

// recordCall accumulates one kernel call into the per-phase totals.
func (st *Stats) recordCall(phase string, wallUS int64, nodes int64) {
	if st == nil {
		return
	}
	st.mu.Lock()
	switch phase {
	case "measure":
		st.measureCalls++
		st.measureWallUS += wallUS
	case "sample":
		st.sampleCalls++
		st.sampleWallUS += wallUS
	case "dag":
		st.dagCalls++
		st.dagWallUS += wallUS
		st.dagNodes += nodes
	}
	st.mu.Unlock()
}

// Levels returns the number of levels recorded (sampler calls count one).
func (st *Stats) Levels() int64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.levels
}

// DepthReached returns the deepest frontier level expanded.
func (st *Stats) DepthReached() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.depth
}

// Shards returns a copy of the per-shard work rows, ordered by shard
// index.
func (st *Stats) Shards() []obs.ShardStat {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]obs.ShardStat(nil), st.shards...)
}

// Phases returns the per-kernel wall breakdown recorded so far: one row
// per kernel family that ran (measure = tree expansion, sample =
// Monte-Carlo sampling, dag = state-collapsed propagation).
func (st *Stats) Phases() []obs.PhaseStat {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []obs.PhaseStat
	if st.measureCalls > 0 {
		out = append(out, obs.PhaseStat{Name: "sched.measure", Calls: st.measureCalls, WallUS: st.measureWallUS})
	}
	if st.sampleCalls > 0 {
		out = append(out, obs.PhaseStat{Name: "sched.sample", Calls: st.sampleCalls, WallUS: st.sampleWallUS})
	}
	if st.dagCalls > 0 {
		out = append(out, obs.PhaseStat{Name: "sched.measure.dag", Calls: st.dagCalls, WallUS: st.dagWallUS})
	}
	return out
}

// DagNodes returns the (state, depth) classes expanded by DAG kernel calls
// recorded into this collector.
func (st *Stats) DagNodes() int64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dagNodes
}
