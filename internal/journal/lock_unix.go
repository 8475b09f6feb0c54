//go:build unix

package journal

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// acquireLock takes the advisory writer lock for the journal at path:
// an exclusive non-blocking flock on the sidecar file path+".lock",
// with the holder's pid written into it for diagnostics. The sidecar is
// never removed (removing it would race a concurrent acquirer onto a
// different inode, silently splitting the lock); the flock itself is
// the truth, the pid content is advisory. The kernel releases the lock
// when the holding process exits, however it exits — a kill -9'd
// writer never wedges the journal.
func acquireLock(path string) (*os.File, error) {
	lf, err := os.OpenFile(lockPath(path), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening lock sidecar for %s: %w", path, err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		pid := readLockPid(lf)
		lf.Close()
		return nil, &LockedError{Path: path, HolderPID: pid}
	}
	// Record the holder for LockHolder and error messages.
	if err := lf.Truncate(0); err == nil {
		lf.Seek(0, 0)
		fmt.Fprintf(lf, "%d\n", os.Getpid())
	}
	return lf, nil
}

// umask is the process's file-creation mask, which WriteFileAtomic
// applies to a new file's 0644. Reading it means setting it, so it is
// read once during package initialization, before any goroutine of the
// program can create a file.
var umask = func() os.FileMode {
	m := syscall.Umask(0o077)
	syscall.Umask(m)
	return os.FileMode(m)
}()

func releaseLock(lf *os.File) error {
	if lf == nil {
		return nil
	}
	// Closing the descriptor drops the flock.
	return lf.Close()
}

func readLockPid(lf *os.File) int {
	var buf [32]byte
	n, err := lf.ReadAt(buf[:], 0)
	if n == 0 && err != nil {
		return 0
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(buf[:n])))
	if err != nil {
		return 0
	}
	return pid
}

// LockHolder probes the advisory lock of the journal at path without
// opening the journal: it reports the recorded holder pid when another
// process holds the lock, and (0, false) when the lock is free. The
// probe briefly acquires and releases the free lock, so it can
// spuriously fail a racing Open — use it for observation (liveness
// checks), not for synchronization.
func LockHolder(path string) (pid int, locked bool) {
	lf, err := os.OpenFile(lockPath(path), os.O_RDWR, 0o644)
	if err != nil {
		return 0, false // no sidecar: nobody ever locked it
	}
	defer lf.Close()
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return readLockPid(lf), true
	}
	syscall.Flock(int(lf.Fd()), syscall.LOCK_UN)
	return 0, false
}
