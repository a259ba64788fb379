package engine_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/engine"
)

// TestRawStoreRoundTrip pins the canonical-bytes store path: an entry in
// the backing tier reads back through GetRaw exactly, misses classify as
// engine.ErrCacheMiss, and promoted entries live in the same striped LRU
// as the typed memos (counted by the shard hit/miss counters, so store
// traffic stays visible in Cache.ShardStats).
func TestRawStoreRoundTrip(t *testing.T) {
	fb := newFakeBacking()
	c := engine.NewCache(16)
	c.SetRawBacking(fb)

	if _, err := c.GetRaw("job-absent"); !errors.Is(err, engine.ErrCacheMiss) {
		t.Fatalf("GetRaw on empty store: err=%v, want ErrCacheMiss", err)
	}

	data := []byte(`{"kind":"check"}`)
	if err := fb.Save("job-0001", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetRaw("job-0001")
	if err != nil {
		t.Fatalf("GetRaw of a stored entry: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("GetRaw = %q, want %q", got, data)
	}

	// The promoted entry is a private copy: mutating what a caller got
	// back does not change what the next lookup returns.
	got[0] = 'X'
	got2, err := c.GetRaw("job-0001")
	if err != nil || got2[0] != '{' {
		t.Fatalf("promoted entry aliased caller bytes: %q, %v", got2, err)
	}

	hits, misses, _, _ := c.Totals()
	if hits < 1 || misses < 2 {
		t.Fatalf("raw traffic not counted: hits=%d misses=%d", hits, misses)
	}
}

// TestRawStoreNilCache pins the nil-receiver contract the store facade
// relies on: GetRaw misses.
func TestRawStoreNilCache(t *testing.T) {
	var c *engine.Cache
	if _, err := c.GetRaw("k"); !errors.Is(err, engine.ErrCacheMiss) {
		t.Fatalf("nil cache GetRaw: err=%v, want ErrCacheMiss", err)
	}
}

// TestRawStoreNamespaced pins that promoted raw entries cannot collide
// with typed memo entries sharing the same key string.
func TestRawStoreNamespaced(t *testing.T) {
	fb := newFakeBacking()
	c := engine.NewCache(16)
	c.SetRawBacking(fb)
	c.Put("job-0002", "typed")
	if err := fb.Save("job-0002", []byte("raw")); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetRaw("job-0002")
	if err != nil || string(got) != "raw" {
		t.Fatalf("raw entry: %q %v", got, err)
	}
	v, ok := c.Get("job-0002")
	if !ok || v != "typed" {
		t.Fatalf("typed entry clobbered by raw promotion: %v %v", v, ok)
	}
}
