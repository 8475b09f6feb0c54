//go:build !unix

package journal

import "os"

// Non-unix platforms get no advisory locking: Open succeeds and the
// single-writer discipline is the operator's responsibility, exactly
// the pre-lock behavior. All supported deployments (CI, the drain
// pool) are linux.
func acquireLock(path string) (*os.File, error) { return nil, nil }

func releaseLock(lf *os.File) error { return nil }

// umask is zero where the platform has none.
const umask os.FileMode = 0

// LockHolder always reports the lock free on platforms without flock.
func LockHolder(path string) (pid int, locked bool) { return 0, false }
