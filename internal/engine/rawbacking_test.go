package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
)

// fakeBacking is an in-memory engine.RawBacking with traffic counters and a
// scriptable failure mode.
type fakeBacking struct {
	mu      sync.Mutex
	entries map[string][]byte
	loads   int
	saves   int
	failing bool
}

func newFakeBacking() *fakeBacking {
	return &fakeBacking{entries: make(map[string][]byte)}
}

func (f *fakeBacking) Load(key string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads++
	if f.failing {
		return nil, errors.New("disk on fire")
	}
	data, ok := f.entries[key]
	if !ok {
		return nil, fmt.Errorf("fake: %q not found", key)
	}
	return append([]byte(nil), data...), nil
}

func (f *fakeBacking) Save(key string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.saves++
	if f.failing {
		return errors.New("disk on fire")
	}
	f.entries[key] = append([]byte(nil), data...)
	return nil
}

// TestRawBackingFallback pins the two-tier raw store: a memory miss falls
// through to the backing, promoting the entry so the next lookup is a
// memory hit, and the cache itself never writes to the backing.
func TestRawBackingFallback(t *testing.T) {
	fb := newFakeBacking()
	data := []byte(`{"kind":"check"}`)
	if err := fb.Save("job-0001", data); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over a warm backing — the restart scenario: memory
	// cold, disk warm.
	c := engine.NewCache(16)
	c.SetRawBacking(fb)
	got, err := c.GetRaw("job-0001")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fallback GetRaw = %q, %v", got, err)
	}
	if fb.loads != 1 {
		t.Fatalf("loads = %d, want 1", fb.loads)
	}
	// Promoted: the second lookup is served from memory, no backing I/O.
	if _, err := c.GetRaw("job-0001"); err != nil {
		t.Fatal(err)
	}
	if fb.loads != 1 {
		t.Fatalf("loads = %d after promoted hit, want still 1", fb.loads)
	}
	if fb.saves != 1 {
		t.Fatalf("saves = %d, want 1 (the test's own seed write only)", fb.saves)
	}
}

// TestRawBackingMissAndFailure pins degradation: a backing miss is a plain
// cache miss, and a failing backing degrades durability, not availability —
// an entry already promoted to memory is still served, and GetRaw still
// classifies ErrCacheMiss.
func TestRawBackingMissAndFailure(t *testing.T) {
	fb := newFakeBacking()
	c := engine.NewCache(16)
	c.SetRawBacking(fb)
	if _, err := c.GetRaw("absent"); !errors.Is(err, engine.ErrCacheMiss) {
		t.Fatalf("backing miss = %v, want ErrCacheMiss", err)
	}

	if err := fb.Save("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetRaw("k"); err != nil {
		t.Fatal(err)
	}
	fb.failing = true
	got, err := c.GetRaw("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("memory tier lost entry when backing failed: %q, %v", got, err)
	}
	if _, err := c.GetRaw("other"); !errors.Is(err, engine.ErrCacheMiss) {
		t.Fatalf("failing backing = %v, want ErrCacheMiss", err)
	}
}

// TestRawBackingNilSafe pins the no-backing and nil-cache contracts.
func TestRawBackingNilSafe(t *testing.T) {
	var c *engine.Cache
	c.SetRawBacking(newFakeBacking()) // must not panic
	c2 := engine.NewCache(16)
	c2.SetRawBacking(nil)
	if _, err := c2.GetRaw("k"); !errors.Is(err, engine.ErrCacheMiss) {
		t.Fatalf("nil backing GetRaw = %v, want ErrCacheMiss", err)
	}
}
