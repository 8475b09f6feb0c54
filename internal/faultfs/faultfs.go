// Package faultfs is the storage fault seam under internal/journal: a
// minimal file-operations interface (FS, File) satisfied by a
// passthrough real implementation (OS), plus a deterministic seeded
// fault injector (injector.go) that fails the Nth operation of a kind
// with ENOSPC or EIO, performs short writes, flips bits in flight, and
// drops unsynced data to present a crash-consistent view — so every
// storage failure mode real fleets see (full disks, dying media,
// lying fsyncs, latent corruption, power loss) is a reproducible test
// case rather than a production surprise.
package faultfs

import (
	"io"
	"os"
)

// File is the subset of *os.File the journal layer needs.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Sync() error
	Name() string
}

// FS is the file-operations seam. Every durable byte the journal (and
// therefore the verdict store, drain checkpoints and pool leases)
// writes goes through one of these methods.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (os.FileInfo, error)
}

// OS is the passthrough implementation over the real filesystem.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) ReadFile(name string) ([]byte, error)  { return os.ReadFile(name) }
func (OS) Rename(oldpath, newpath string) error  { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error              { return os.Remove(name) }
func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }
