package sched

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/rng"
)

// Options configures the kernel calls that take them. The zero value runs
// everything sequentially.
type Options struct {
	// Workers is the sampling fan-out of SampleImageOpts. Zero or one
	// samples on the calling goroutine. The exact kernels (MeasureOpts,
	// MeasureDAGOpts) are sequential and ignore it.
	Workers int
	// Stats, when set, collects per-phase wall time, the depth reached and
	// per-shard work telemetry into the collector (see Stats). Nil — the
	// default — skips all collection, including the clock reads.
	Stats *Stats
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 1
}

// runShards executes fn(0..n-1) on private goroutines (one per shard; n is
// already bounded by the worker count). Panics are isolated into
// *resilience.PanicError task failures, and the lowest-index failure wins.
func runShards(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = resilience.Catch(func() error { return fn(i) })
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// span is a contiguous index range of one shard.
type span struct{ lo, hi int }

// splitSpans partitions [0, n) into at most parts contiguous ranges whose
// sizes differ by at most one. The partition depends only on (n, parts), so
// shard boundaries are deterministic.
func splitSpans(n, parts int) []span {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([]span, 0, parts)
	base, rem := n/parts, n%parts
	lo := 0
	for i := 0; i < parts; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out = append(out, span{lo, lo + sz})
		lo += sz
	}
	return out
}

// parShard is the private output of one sampling shard: its busy time and
// the first error it hit, tagged with the global sample index so the merge
// can pick a deterministic winner across any worker count.
type parShard struct {
	wallUS int64
	err    error
	errIdx int
}

// MeasureOpts is MeasureCtx recording into o.Stats, when set, one
// sched.measure phase call and the depth reached. The expansion is always
// the sequential kernel, so the result does not depend on o.Workers.
func MeasureOpts(ctx context.Context, a psioa.PSIOA, s Scheduler, maxDepth int, b *resilience.Budget, o Options) (*ExecMeasure, error) {
	if o.Stats == nil {
		return MeasureCtx(ctx, a, s, maxDepth, b)
	}
	t0 := time.Now()
	em, err := MeasureCtx(ctx, a, s, maxDepth, b)
	o.Stats.recordCall("measure", time.Since(t0).Microseconds(), 0)
	if em != nil {
		o.Stats.recordDepth(em.MaxLen())
	}
	return em, err
}

// SampleImageOpts estimates the image measure of ε_σ under f from n
// samples, sharded across workers by sample index. One 64-bit draw from the
// caller's stream seeds a pure per-sample substream (rng.Substream), and
// sample keys merge into the distribution in index order — so the result is
// identical for any worker count, including 1, and the caller's stream
// advances by exactly one draw regardless of n. The sample sequence is by
// construction different from the serial-stream SampleImageCtx, which is
// left untouched (its goldens are pinned).
//
// Monte-Carlo estimates stay unbiased only at the full sample count, so —
// like SampleImageCtx — any interruption returns nil with the classified
// error (lowest sample index wins, deterministically). f must be safe for
// concurrent calls.
func SampleImageOpts(ctx context.Context, a psioa.PSIOA, s Scheduler, stream *rng.Stream, maxDepth, n int, f func(*psioa.Frag) string, b *resilience.Budget, o Options) (*measure.Dist[string], error) {
	material := stream.Uint64()
	keys := make([]string, n)
	spans := splitSpans(n, o.workers())
	outs := make([]parShard, len(spans))
	sp := obs.Begin("sched.sample.par", s.Name())
	defer sp.End()
	defer obs.Time("sched.sample.par.us")()
	tr := obs.Active()
	traced := tr.Enabled()
	collect := o.Stats != nil
	timed := collect || traced
	var callStart time.Time
	if timed {
		callStart = time.Now()
	}
	sampleRange := func(i int) {
		lo, hi := spans[i].lo, spans[i].hi
		ck := resilience.NewCheckpoint(ctx, b)
		for k := lo; k < hi; k++ {
			fr, err := Sample(a, s, rng.Substream(material, uint64(k)), maxDepth)
			if err != nil {
				outs[i].err, outs[i].errIdx = err, k
				return
			}
			if err := ck.Step(1, int64(fr.Len())); err != nil {
				outs[i].err, outs[i].errIdx = err, k
				return
			}
			keys[k] = f(fr)
		}
		if err := ck.Finish(); err != nil {
			outs[i].err, outs[i].errIdx = err, hi
		}
	}
	timedRange := func(i int) {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		sampleRange(i)
		if timed {
			outs[i].wallUS = time.Since(t0).Microseconds()
		}
	}
	var runErr error
	if len(spans) == 1 {
		timedRange(0)
	} else {
		runErr = runShards(len(spans), func(i int) error {
			timedRange(i)
			return nil
		})
	}
	var err error
	errIdx := -1
	for i := range outs {
		if outs[i].err != nil && (errIdx < 0 || outs[i].errIdx < errIdx) {
			err, errIdx = outs[i].err, outs[i].errIdx
		}
	}
	if err == nil {
		err = runErr
	}
	if timed && err == nil {
		callWallUS := time.Since(callStart).Microseconds()
		if collect {
			widths := make([]int64, len(outs))
			walls := make([]int64, len(outs))
			for i := range outs {
				widths[i] = int64(spans[i].hi - spans[i].lo)
				walls[i] = outs[i].wallUS
			}
			// Sampling has no levels: the whole run is one barrier, and
			// every sample in a shard's span was drawn, so items = width.
			o.Stats.recordLevel(widths, widths, walls)
			o.Stats.recordCall("sample", callWallUS, 0)
		}
		if traced {
			for i := range outs {
				tr.Emit(obs.Event{Kind: obs.KindShard, Name: s.Name(),
					Attr: fmt.Sprintf("S%d", i), N: int64(spans[i].hi - spans[i].lo),
					Dur: outs[i].wallUS, Parent: sp.ID()})
			}
		}
	}
	if err != nil {
		return nil, err
	}
	d := measure.New[string]()
	inc := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		d.Add(keys[i], inc)
	}
	return d, nil
}
