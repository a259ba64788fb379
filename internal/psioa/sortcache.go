package psioa

import (
	"reflect"
	"sort"

	"repro/internal/intern"
	"repro/internal/obs"
)

// Sorted-action memoization for the exploration and scheduling hot paths.
//
// Explore, Greedy/Random schedulers and the engine fingerprint all need
// "the actions of sig(A)(q), sorted" at every visited state, and the naive
// rendering (sig.All().Sorted()) allocates two union sets and re-sorts on
// every call. Signatures, however, are stable values in this codebase:
// Table automata store one Signature per state and Product/wrapper automata
// cache the composed Signature per state, so the identity of a signature's
// underlying sets is a faithful memo key. Automata that build fresh
// signature maps per call only lose the memoization (every lookup misses
// and falls back to the sort), never correctness — distinct maps with equal
// contents sort to equal slices.
//
// The memo is process-global and bounded: when it exceeds sortMemoLimit
// entries it is dropped wholesale (entries are recomputable), which keeps
// long-running daemons that churn through many automata from leaking.

// sigIdent identifies a signature by the identity of its component sets.
type sigIdent struct {
	in, out, inner uintptr
	local          bool
}

// sortMemoLimit bounds the memo — and, because entries pin their
// signature sets, the live heap the memo can hold across workloads. Hot
// loops (repeated measures over one automaton) touch at most a few
// thousand distinct signatures, so a small cap keeps their hit rate while
// a state-space sweep that churns through hundreds of thousands of
// signatures cannot leave hundreds of MB pinned for the GC to scan on
// behalf of every later operation in the process.
const sortMemoLimit = 1 << 13

// memoEntry pins the signature's sets alongside the sorted slice. The
// pinning is what makes identity keying sound: while an entry is live its
// sets cannot be collected, so no later allocation can reuse their
// addresses and a pointer match always identifies the very same sets.
type memoEntry struct {
	in, out, inner ActionSet
	acts           []Action
}

// sortMemo is a read-mostly concurrent map: steady-state hits are one
// atomic load with no lock, so concurrent measures (pool tasks, sampling
// shards) do not serialize on an RWMutex for every Choose (the dominant
// contention source E21 measured). The cap preserves the wholesale-drop bound above.
var sortMemo = intern.NewRM[sigIdent, memoEntry](sortMemoLimit)

// Contention instruments for the sort memo. The memo sits on the hottest
// scheduler paths, so its hit rate and reset churn are the direct signal
// for the interned-ID contention hypothesis (ROADMAP item 2). Hits and
// misses are one atomic add on paths that already take the memo lock.
var (
	cSortMemoHits   = obs.C("psioa.sortmemo.hits")
	cSortMemoMisses = obs.C("psioa.sortmemo.misses")
	cSortMemoResets = obs.C("psioa.sortmemo.resets")
	gSortMemoSize   = obs.G("psioa.sortmemo.entries")
)

// SortMemoStats is a point-in-time view of the sorted-action memo: cumulative
// hit/miss/reset counts and the entries currently pinned.
type SortMemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Resets  int64 `json:"resets"`
	Entries int   `json:"entries"`
}

// SortMemoSnapshot reads the memo's counters and current size.
func SortMemoSnapshot() SortMemoStats {
	n := sortMemo.Len()
	return SortMemoStats{
		Hits:    cSortMemoHits.Value(),
		Misses:  cSortMemoMisses.Value(),
		Resets:  cSortMemoResets.Value(),
		Entries: n,
	}
}

// ResetSortMemo drops the process-global memo. Entries are recomputable, so
// this only costs warm-up; callers that time independent workloads in one
// process (benchmark harnesses) use it to unpin the previous workload's
// signature sets — a handful of live entries scattered across an old
// workload's spans keeps those spans in use, and every GC cycle of the next
// workload re-sweeps them.
func ResetSortMemo() {
	sortMemo.Reset()
	cSortMemoResets.Inc()
	gSortMemoSize.Set(0)
}

func setPtr(s ActionSet) uintptr {
	if s == nil {
		return 0
	}
	return reflect.ValueOf(s).Pointer()
}

func sortedMemoized(sig Signature, local bool) []Action {
	key := sigIdent{in: setPtr(sig.In), out: setPtr(sig.Out), inner: setPtr(sig.Int), local: local}
	if ent, ok := sortMemo.Get(key); ok {
		cSortMemoHits.Inc()
		return ent.acts
	}
	cSortMemoMisses.Inc()
	n := len(sig.Out) + len(sig.Int)
	if !local {
		n += len(sig.In)
	}
	acts := make([]Action, 0, n)
	if !local {
		for a := range sig.In {
			acts = append(acts, a)
		}
	}
	for a := range sig.Out {
		acts = append(acts, a)
	}
	for a := range sig.Int {
		acts = append(acts, a)
	}
	sort.Slice(acts, func(i, j int) bool { return acts[i] < acts[j] })
	// Valid signatures are disjoint; compress duplicates anyway so invalid
	// ones (checked later by Validate) still yield set semantics.
	dedup := acts[:0]
	for i, a := range acts {
		if i == 0 || a != dedup[len(dedup)-1] {
			dedup = append(dedup, a)
		}
	}
	acts = dedup
	if sortMemo.Set(key, memoEntry{in: sig.In, out: sig.Out, inner: sig.Int, acts: acts}) {
		cSortMemoResets.Inc()
	}
	gSortMemoSize.Set(int64(sortMemo.Len()))
	return acts
}

// SortedAll returns sig^ = in ∪ out ∪ int in lexicographic order, memoized
// by the identity of the signature's sets. The returned slice is shared and
// MUST NOT be modified; copy before sorting differently or appending.
func SortedAll(sig Signature) []Action { return sortedMemoized(sig, false) }

// SortedLocal returns the locally controlled actions out ∪ int in
// lexicographic order, memoized like SortedAll. The returned slice is
// shared and MUST NOT be modified.
func SortedLocal(sig Signature) []Action { return sortedMemoized(sig, true) }
