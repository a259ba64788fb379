//go:build unix

package durable_test

import (
	"errors"
	"os"
	"os/exec"
	"testing"

	"repro/internal/durable"
)

// lockProbeEnv names the store directory TestLockProbe opens when the test
// binary is re-run as a second process.
const lockProbeEnv = "DURABLE_LOCK_PROBE_DIR"

// TestLockProbe is the second process of TestDiskStoreLocked: it opens the
// store named by lockProbeEnv and reports the outcome in its exit code
// (0 opened, 3 ErrLocked, 1 any other error). Run directly, it skips.
func TestLockProbe(t *testing.T) {
	dir := os.Getenv(lockProbeEnv)
	if dir == "" {
		t.Skip("helper process for TestDiskStoreLocked")
	}
	s, err := durable.Open(dir, durable.StoreOptions{})
	switch {
	case errors.Is(err, durable.ErrLocked):
		os.Exit(3)
	case err != nil:
		os.Exit(1)
	}
	s.Close()
	os.Exit(0)
}

// probeOpen opens dir from a second process and returns its exit code.
func probeOpen(t *testing.T, dir string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestLockProbe$")
	cmd.Env = append(os.Environ(), lockProbeEnv+"="+dir)
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// TestDiskStoreLocked pins the exclusive store-directory lock: while one
// process has the store open, a second process's Open fails with
// ErrLocked and touches nothing; after Close — and after Manager.Kill,
// which stands in for a SIGKILL — the directory opens again.
func TestDiskStoreLocked(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.StoreOptions{})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if code := probeOpen(t, dir); code != 3 {
		t.Fatalf("second process Open while locked: exit %d, want 3 (ErrLocked)", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if code := probeOpen(t, dir); code != 0 {
		t.Fatalf("second process Open after Close: exit %d, want 0", code)
	}

	s2 := openStore(t, dir, durable.StoreOptions{})
	if got, err := s2.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("reopened store: %q, %v", got, err)
	}
	durable.NewManager(nil, s2).Kill()
	if code := probeOpen(t, dir); code != 0 {
		t.Fatalf("second process Open after Manager.Kill: exit %d, want 0", code)
	}
}
