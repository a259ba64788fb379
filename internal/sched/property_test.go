package sched_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// TestMeasureTotalOneQuick: every bounded scheduler induces a probability
// measure (total mass 1) — the σ-algebra fact behind Section 3.
func TestMeasureTotalOneQuick(t *testing.T) {
	prop := func(seed uint64, pick uint8) bool {
		a := testaut.RandomAut(seed)
		em, err := sched.Measure(a, testaut.RandomSched(a, pick), 6)
		if err != nil {
			return false
		}
		return math.Abs(em.Total()-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestConePartitionQuick: the cones of the one-step extensions of any
// support prefix partition that prefix's cone.
func TestConePartitionQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		a := testaut.RandomAut(seed)
		s := &sched.Random{A: a, Bound: 4, LocalOnly: true}
		em, err := sched.Measure(a, s, 5)
		if err != nil {
			return false
		}
		root := psioa.NewFrag(a.Start())
		total := em.Cone(root)
		// Enumerate the one-step extensions present in the support tree.
		sum := em.P(root) // mass halted exactly at the root
		seen := map[string]bool{}
		em.ForEach(func(f *psioa.Frag, p float64) {
			if f.Len() == 0 {
				return
			}
			ext := root.Extend(f.ActionAt(0), f.StateAt(1))
			if !seen[ext.Key()] {
				seen[ext.Key()] = true
				sum += em.Cone(ext)
			}
		})
		return math.Abs(total-sum) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSampleMatchesExactQuick: the Monte-Carlo sampler agrees with the
// exact measure on trace frequencies within statistical error.
func TestSampleMatchesExactQuick(t *testing.T) {
	a := testaut.RandomAut(42)
	s := &sched.Random{A: a, Bound: 4, LocalOnly: true}
	em, err := sched.Measure(a, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	exact := em.Image(func(f *psioa.Frag) string { return f.TraceKey(a) })
	est, err := sched.SampleImage(a, s, rng.New(7), 5, 30000, func(f *psioa.Frag) string { return f.TraceKey(a) })
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, k := range exact.Support() {
		if d := math.Abs(exact.P(k) - est.P(k)); d > worst {
			worst = d
		}
	}
	if worst > 0.02 {
		t.Errorf("sampling deviates by %v", worst)
	}
}

// TestBoundedNeverExceedsQuick: Bounded wrappers truncate every scheduler.
func TestBoundedNeverExceedsQuick(t *testing.T) {
	prop := func(seed uint64, braw uint8) bool {
		b := 1 + int(braw%5)
		a := testaut.RandomAut(seed)
		s := &sched.Bounded{Inner: &sched.Random{A: a, Bound: 100, LocalOnly: true}, B: b}
		em, err := sched.Measure(a, s, b+1)
		if err != nil {
			return false
		}
		return em.MaxLen() <= b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
