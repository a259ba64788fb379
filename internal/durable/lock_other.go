//go:build !unix

package durable

import "os"

// lockDir takes no lock where POSIX record locks are unavailable: the
// store directory is then not protected against a second process.
func lockDir(string) (*os.File, error) { return nil, nil }
