package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stack is one CPU profile sample: its sample count and the function names
// of its frames, innermost first (inlined frames expanded).
type stack struct {
	count int64
	funcs []string
}

// parseProfile decodes the gzipped protobuf CPU profile that runtime/pprof
// writes. Only the fields attribution needs are read: samples (location
// ids and values), locations (their lines' function ids), functions (name
// string index) and the string table. Field numbers follow
// github.com/google/pprof/proto/profile.proto.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Profile.sample
			var s sample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2: // Location.line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case num == 5 && wire == 2: // Profile.function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case num == 6 && wire == 2: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{count: s.values[0]}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && i < int64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the protobuf message b, calling fn with each field's
// number and wire type, and its varint value (wire 0) or payload (wire 2).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// unpacked value (wire 0) or a packed run (wire 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const internalPrefix = "repro/internal/"

// modules are the repository's internal packages, the layers CPU samples
// are attributed to. protocols/* collapses into one layer.
var modules = []string{
	"adversary", "bounded", "codec", "core", "durable", "engine", "insight",
	"intern", "measure", "obs", "pca", "protocols", "psioa", "resilience",
	"rng", "sched", "spec", "structured",
}

// inclusiveModules get an inclusive share as well: the layers that mostly
// call into others, so their self share understates their cost.
var inclusiveModules = []string{"adversary", "bounded", "core", "engine", "insight"}

// gcLayer holds samples of the runtime's background GC workers.
const gcLayer = "runtime.gc"

// moduleOf returns the internal package a function belongs to, or "".
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribution is the per-layer share of CPU samples.
type attribution struct {
	total int64
	self  map[string]int64 // innermost internal module, gcLayer, or "other"
	incl  map[string]int64 // module anywhere on the stack
}

// attribute assigns each sample to the innermost repro/internal/<pkg> frame
// on its stack; samples of the runtime's background mark, sweep and
// scavenge workers go to runtime.gc, and the rest (stdlib-only stacks,
// the scheduler, the benchmark's own frames) to "other".
func attribute(stacks []stack) attribution {
	a := attribution{self: map[string]int64{}, incl: map[string]int64{}}
	for _, s := range stacks {
		a.total += s.count
		layer := ""
		seen := map[string]bool{}
		for _, fn := range s.funcs {
			m := moduleOf(fn)
			if m == "" {
				if layer == "" && isGCWorker(fn) {
					layer = gcLayer
				}
				continue
			}
			if layer == "" {
				layer = m
			}
			if !seen[m] {
				seen[m] = true
				a.incl[m] += s.count
			}
		}
		if layer == "" {
			layer = "other"
		}
		a.self[layer] += s.count
	}
	return a
}

func isGCWorker(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
		return true
	}
	return false
}

func (a attribution) frac(n int64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(n) / float64(a.total)
}

// coverage is the share of samples attributed to a named layer or GC.
func (a attribution) coverage() float64 {
	return 1 - a.frac(a.self["other"])
}
