package testaut

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/psioa"
	"repro/internal/sched"
)

// RandomSched picks one of three bounded local schedulers (greedy, random,
// priority over a0..a3) for a RandomAut automaton.
func RandomSched(a psioa.PSIOA, pick uint8) sched.Scheduler {
	switch pick % 3 {
	case 0:
		return &sched.Greedy{A: a, Bound: 5, LocalOnly: true}
	case 1:
		return &sched.Random{A: a, Bound: 5, LocalOnly: true}
	default:
		return &sched.Priority{A: a, Bound: 5, LocalOnly: true,
			Order: []psioa.Action{"a0_r", "a1_r", "a2_r", "a3_r"}}
	}
}

// RenderMeasure renders an execution measure exhaustively — every support
// element with its exact mass, the totals, and every cone — in the
// measure's own order, so two renderings are equal only when the measures
// are byte-identical down to the last float bit.
func RenderMeasure(em *sched.ExecMeasure) string {
	var b strings.Builder
	em.ForEach(func(f *psioa.Frag, p float64) {
		fmt.Fprintf(&b, "E %s %.17g\n", f.Key(), p)
	})
	fmt.Fprintf(&b, "total %.17g len %d maxlen %d\n", em.Total(), em.Len(), em.MaxLen())
	em.ForEachPrefix(func(f *psioa.Frag) {
		fmt.Fprintf(&b, "C %s %.17g\n", f.Key(), em.Cone(f))
	})
	return b.String()
}

// RenderDist renders a distribution's total and sorted support with exact
// masses.
func RenderDist(d interface {
	SortedSupport() []string
	P(string) float64
	Total() float64
}) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %.17g\n", d.Total())
	for _, k := range d.SortedSupport() {
		fmt.Fprintf(&b, "S %s %.17g\n", k, d.P(k))
	}
	return b.String()
}

// RefMeasure is the execution measure RefExpand computes, keyed by
// fragment key: the halted mass of every support element, the cone mass of
// every expanded prefix, and the total mass.
type RefMeasure struct {
	Halts map[string]float64
	Cones map[string]float64
	Total float64
}

// RefExpand is the pre-interning tree kernel, reimplemented over
// string-keyed maps as an independent reference for the interned kernel:
// same DFS, same pruning, same (action, successor) child order, halts keyed
// by fragment key, cone masses accumulated in sorted halted-key order over
// parent chains. Results agree with sched.MeasureCtx bit for bit.
func RefExpand(a psioa.PSIOA, s sched.Scheduler, maxDepth int) (*RefMeasure, error) {
	rm := &RefMeasure{Halts: map[string]float64{}, Cones: map[string]float64{}}
	type item struct {
		f *psioa.Frag
		p float64
	}
	haltFrag := map[string]*psioa.Frag{}
	stack := []item{{psioa.NewFrag(a.Start()), 1}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f, p := it.f, it.p
		if p < 1e-15 {
			continue
		}
		choice := s.Choose(f)
		if !choice.IsSubProb() {
			return nil, fmt.Errorf("over-mass at %v", f)
		}
		if halt := choice.Deficit(); halt > 1e-15 {
			k := f.Key()
			rm.Halts[k] += p * halt
			haltFrag[k] = f
		}
		if choice.Total() <= 1e-15 {
			continue
		}
		if f.Len() >= maxDepth {
			return nil, fmt.Errorf("depth exceeded at %v", f)
		}
		var kids []item
		lst := f.LState()
		for _, act := range choice.SortedSupport() {
			pa := choice.P(act)
			if pa <= 0 {
				continue
			}
			eta := a.Trans(lst, act)
			for _, q2 := range eta.SortedSupport() {
				pq := eta.P(q2)
				if pq <= 0 {
					continue
				}
				kids = append(kids, item{f.Extend(act, q2), p * pa * pq})
			}
		}
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	keys := make([]string, 0, len(rm.Halts))
	for k := range rm.Halts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rm.Total += rm.Halts[k]
		for g := haltFrag[k]; g != nil; g = g.Parent() {
			rm.Cones[g.Key()] += rm.Halts[k]
		}
	}
	return rm, nil
}
