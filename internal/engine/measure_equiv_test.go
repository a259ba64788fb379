package engine_test

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// TestCacheMeasureMatchesKernelQuick runs random automata down the route
// the simulate jobs take: engine.Cache.MeasureOpts and FDistOpts with the
// runner's kernel options (four workers, a shared Stats collector), called
// from concurrent tasks of a Pool(4) that share one cache. Every measure
// and trace image must agree bit for bit with the sequential
// sched.MeasureCtx and with the string-keyed reference kernel
// testaut.RefExpand.
func TestCacheMeasureMatchesKernelQuick(t *testing.T) {
	ctx := context.Background()
	pool := engine.NewPool(4)
	trace := insight.Trace()
	const depth, tasks = 6, 4
	prop := func(seed uint64, pick uint8) bool {
		a := testaut.RandomAut(seed)
		s := testaut.RandomSched(a, pick)
		want, err := sched.MeasureCtx(ctx, a, s, depth, nil)
		if err != nil {
			t.Logf("seed %d: MeasureCtx: %v", seed, err)
			return false
		}
		ref, err := testaut.RefExpand(a, s, depth)
		if err != nil {
			t.Logf("seed %d: RefExpand: %v", seed, err)
			return false
		}
		c := engine.NewCache(0)
		st := &sched.Stats{}
		o := sched.Options{Workers: 4, Stats: st}
		ems := make([]*sched.ExecMeasure, tasks)
		imgs := make([]string, tasks)
		err = pool.Map(ctx, tasks, func(i int) error {
			em, err := c.MeasureOpts(ctx, a, s, depth, nil, o)
			if err != nil {
				return err
			}
			img, err := c.FDistOpts(ctx, a, s, trace, depth, nil, o)
			if err != nil {
				return err
			}
			ems[i], imgs[i] = em, testaut.RenderDist(img)
			return nil
		})
		if err != nil {
			t.Logf("seed %d: engine route: %v", seed, err)
			return false
		}
		wantRender := testaut.RenderMeasure(want)
		wantImg := testaut.RenderDist(want.Image(func(f *psioa.Frag) string { return trace.Apply(a, f) }))
		for i, em := range ems {
			if got := testaut.RenderMeasure(em); got != wantRender {
				t.Logf("seed %d task %d: cached measure differs from MeasureCtx:\n%s\nwant:\n%s", seed, i, got, wantRender)
				return false
			}
			if imgs[i] != wantImg {
				t.Logf("seed %d task %d: cached trace image differs:\n%s\nwant:\n%s", seed, i, imgs[i], wantImg)
				return false
			}
		}
		em := ems[0]
		if em.Total() != ref.Total || em.Len() != len(ref.Halts) {
			t.Logf("seed %d: total %v support %d, reference %v / %d", seed, em.Total(), em.Len(), ref.Total, len(ref.Halts))
			return false
		}
		ok := true
		em.ForEach(func(f *psioa.Frag, p float64) {
			if ref.Halts[f.Key()] != p {
				t.Logf("seed %d: halt %q mass %v, reference %v", seed, f.Key(), p, ref.Halts[f.Key()])
				ok = false
			}
		})
		em.ForEachPrefix(func(f *psioa.Frag) {
			if got := em.Cone(f); got != ref.Cones[f.Key()] {
				t.Logf("seed %d: cone(%q) %v, reference %v", seed, f.Key(), got, ref.Cones[f.Key()])
				ok = false
			}
		})
		if ph := st.Phases(); len(ph) != 1 || ph[0].Name != "sched.measure" || ph[0].Calls < 1 {
			t.Logf("seed %d: phases %+v, want sched.measure calls only", seed, ph)
			ok = false
		}
		if st.DepthReached() != want.MaxLen() {
			t.Logf("seed %d: depth reached %d, want %d", seed, st.DepthReached(), want.MaxLen())
			ok = false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
