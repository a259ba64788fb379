//go:build unix

package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive POSIX record lock on <dir>/LOCK without
// blocking. The lock belongs to the process: another process's Open fails
// with ErrLocked until this one closes the returned file or exits — any
// exit, SIGKILL included, releases it — while the same process may reopen
// its own directory, as restart tests do.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: lock store: %w", err)
	}
	lk := syscall.Flock_t{Type: syscall.F_WRLCK, Whence: io.SeekStart}
	if err := syscall.FcntlFlock(f.Fd(), syscall.F_SETLK, &lk); err != nil {
		f.Close()
		if errors.Is(err, syscall.EAGAIN) || errors.Is(err, syscall.EACCES) {
			return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		return nil, fmt.Errorf("durable: lock store: %w", err)
	}
	return f, nil
}
