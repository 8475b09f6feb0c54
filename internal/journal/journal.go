// Package journal implements the append-only record log that backs
// checkpointable solver drains: length-prefixed, CRC-checksummed
// records, torn-tail truncation on open, an fsync policy flag, and
// atomic snapshot compaction via temp-file + rename (WriteFileAtomic,
// which Repair and cmd/bench's report writer share; the rewritten file
// keeps its mode).
//
// On-disk format: a log is a concatenation of records, each
//
//	[4-byte LE payload length][4-byte LE CRC32 (IEEE) of payload][payload]
//
// with no file header. Recovery is prefix-based: Open scans from the
// start and truncates the file at the first record that is incomplete
// (torn tail), declares an implausible length, or fails its checksum.
// Everything before that point is intact by construction, so a crash
// mid-append loses at most the record being written.
//
// Failure semantics (see scavenge.go for repair):
//
//   - A failed or short Append write is rolled back — the file is
//     truncated to the pre-append size — so one failed append never
//     poisons later successful appends under prefix recovery. The log
//     stays usable; only a failed rollback makes it sticky-failed.
//   - A failed Sync makes the log sticky-failed: after fsync reports
//     an error the page-cache state is unknown and retrying fsync on
//     the same fd can report success without making the data durable,
//     so every later operation returns ErrFailed and the caller must
//     reopen (which re-validates against what actually hit disk).
//   - Open distinguishes a torn tail (no valid records past the
//     damage: truncated silently, as before) from mid-file corruption
//     (valid records recoverable past the damage: Open refuses with a
//     CorruptError instead of silently discarding them — run Repair /
//     `drain -fsck -repair` to scavenge and quarantine).
//
// All file I/O goes through a faultfs.FS seam (OpenFS), so every one
// of these paths is exercised by deterministic fault injection; the
// advisory flock sidecar intentionally stays on the real OS.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"ringrobots/internal/faultfs"
)

// ErrLocked is the sentinel wrapped by LockedError: another process
// holds the journal's advisory writer lock. Match it with errors.Is.
var ErrLocked = errors.New("journal: locked by another process")

// ErrFailed is the sticky failure sentinel: a Sync error (or a failed
// append rollback) has left the log in an unknown durable state, and
// every subsequent Append/Sync/Compact returns an error matching this
// until the log is reopened. Match it with errors.Is.
var ErrFailed = errors.New("journal: log failed, reopen required")

// ErrCorrupt is the sentinel wrapped by CorruptError: the journal has
// valid records AFTER a damaged region, so prefix recovery would
// silently discard live data. Match it with errors.Is.
var ErrCorrupt = errors.New("journal: mid-file corruption")

// CorruptError reports mid-file corruption found by Open: the valid
// prefix ends at ValidBytes, but Recoverable more records are intact
// beyond the damage. Open refuses to truncate them away; run Repair
// (or `drain -fsck -repair`) to scavenge them and quarantine the
// damaged span.
type CorruptError struct {
	Path        string
	ValidBytes  int64 // length of the clean prefix
	Recoverable int   // valid records found beyond the damage
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: %s: mid-file corruption after byte %d with %d recoverable record(s) beyond it; run repair (drain -fsck -repair) instead of truncating",
		e.Path, e.ValidBytes, e.Recoverable)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// LockedError reports a failed lock acquisition, with the pid the
// current holder recorded in the sidecar (0 when unreadable).
type LockedError struct {
	Path      string
	HolderPID int
}

func (e *LockedError) Error() string {
	if e.HolderPID != 0 {
		return fmt.Sprintf("journal: %s is locked by pid %d", e.Path, e.HolderPID)
	}
	return fmt.Sprintf("journal: %s is locked by another process", e.Path)
}

func (e *LockedError) Unwrap() error { return ErrLocked }

// lockPath is the sidecar file carrying the journal's advisory flock.
// It sits next to the journal so Compact's rename of the journal file
// itself never disturbs the lock.
func lockPath(path string) string { return path + ".lock" }

const (
	headerSize = 8
	// MaxRecordLen bounds a record's declared payload length. A torn or
	// bit-flipped header can declare any 32-bit length; without a cap, a
	// giant declared length could only be rejected after comparing
	// against the file size, and a reader streaming the log would try to
	// allocate it. Checkpoints are far below this.
	MaxRecordLen = 1 << 30
)

// SyncPolicy selects how eagerly appends reach stable storage.
type SyncPolicy int

const (
	// SyncNone leaves flushing to the OS (fast; a crash may lose the
	// most recent appends, which recovery truncates away).
	SyncNone SyncPolicy = iota
	// SyncAlways fsyncs after every append: once Append returns, the
	// record survives a crash.
	SyncAlways
)

// Log is an open journal file positioned for appending.
type Log struct {
	path   string
	fsys   faultfs.FS
	f      faultfs.File
	lock   *os.File // sidecar holding the advisory flock, nil on non-unix
	policy SyncPolicy
	n      int
	size   int64
	last   []byte // copy of the latest record's payload, nil when empty
	failed error  // sticky failure; non-nil wraps ErrFailed
	// unsynced reports a change to the file since its last successful
	// fsync, so Sync can skip the fsync when there is none.
	unsynced bool
}

// AppendRecord appends the encoded form of one record (header +
// payload) to dst. It is the single definition of the record encoding,
// shared by Append, Compact and the decoder tests.
func AppendRecord(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// RecordSize is the encoded (on-disk) size of a record carrying a
// payload of payloadLen bytes: what it adds to Size when appended.
func RecordSize(payloadLen int) int64 { return headerSize + int64(payloadLen) }

// recordAt decodes the record starting at off in buf. It returns the
// payload (aliasing buf), the record's total encoded size, and whether
// a fully-valid record starts there. It is the single decoder shared
// by Scan and ScavengeBytes.
func recordAt(buf []byte, off int) (payload []byte, size int, ok bool) {
	if len(buf)-off < headerSize {
		return nil, 0, false
	}
	length := binary.LittleEndian.Uint32(buf[off:])
	if length > MaxRecordLen || int(length) > len(buf)-off-headerSize {
		return nil, 0, false
	}
	sum := binary.LittleEndian.Uint32(buf[off+4:])
	payload = buf[off+headerSize : off+headerSize+int(length)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, headerSize + int(length), true
}

// Scan parses buf as a record log: it returns the payloads of the
// leading fully-valid records and the byte length of that valid prefix.
// The returned slices alias buf. Scan never fails — a corrupt or torn
// suffix simply ends the valid prefix — and recovery is idempotent:
// Scan(buf[:valid]) returns the same records and the same length.
func Scan(buf []byte) (recs [][]byte, valid int) {
	off := 0
	for {
		payload, size, ok := recordAt(buf, off)
		if !ok {
			return recs, off
		}
		recs = append(recs, payload)
		off += size
	}
}

// Open opens the journal at path over the real filesystem; see OpenFS.
func Open(path string, policy SyncPolicy) (*Log, error) {
	return OpenFS(faultfs.OS{}, path, policy)
}

// OpenFS opens (creating if absent) the journal at path through fsys,
// recovers its valid prefix, truncates any torn tail, and positions
// the log for appending. When valid records survive BEYOND a damaged
// region — mid-file corruption, where truncation would silently
// discard live data — OpenFS refuses with a CorruptError (matching
// ErrCorrupt) instead; run Repair to scavenge. OpenFS takes the
// journal's advisory writer lock (an flock on the path+".lock"
// sidecar, always on the real OS); when another live process holds
// it, OpenFS fails with a LockedError matching ErrLocked, naming the
// holder's pid. The lock dies with the process, so a crashed writer
// never needs manual cleanup. Lock-free readers (Scan over
// os.ReadFile) are unaffected.
func OpenFS(fsys faultfs.FS, path string, policy SyncPolicy) (*Log, error) {
	lock, err := acquireLock(path)
	if err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		releaseLock(lock)
		return nil, err
	}
	fail := func(err error) (*Log, error) {
		f.Close()
		releaseLock(lock)
		return nil, err
	}
	buf, err := io.ReadAll(f)
	if err != nil {
		return fail(fmt.Errorf("journal: reading %s: %w", path, err))
	}
	recs, valid := Scan(buf)
	if valid < len(buf) {
		// Damage. Torn tail (nothing valid beyond it) is the normal
		// crash signature and is truncated away; recoverable records
		// beyond the damage mean truncation would lose live data.
		if sc := ScavengeBytes(buf); len(sc.Records) > len(recs) {
			return fail(&CorruptError{
				Path:        path,
				ValidBytes:  int64(valid),
				Recoverable: len(sc.Records) - len(recs),
			})
		}
		if err := f.Truncate(int64(valid)); err != nil {
			return fail(fmt.Errorf("journal: truncating torn tail of %s: %w", path, err))
		}
		if policy == SyncAlways {
			if err := f.Sync(); err != nil {
				return fail(err)
			}
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		return fail(err)
	}
	l := &Log{path: path, fsys: fsys, f: f, lock: lock, policy: policy, n: len(recs), size: int64(valid),
		unsynced: valid < len(buf) && policy != SyncAlways}
	if len(recs) > 0 {
		l.last = append([]byte(nil), recs[len(recs)-1]...)
	}
	return l, nil
}

// Path returns the journal's file path.
func (l *Log) Path() string { return l.path }

// Len returns the number of valid records in the log.
func (l *Log) Len() int { return l.n }

// Size returns the byte length of the log's valid prefix.
func (l *Log) Size() int64 { return l.size }

// Failed returns the sticky failure error (nil while the log is
// healthy). Once non-nil, every mutation returns it until reopen.
func (l *Log) Failed() error { return l.failed }

// fail marks the log sticky-failed with cause and returns the wrapped
// error callers see.
func (l *Log) fail(cause error) error {
	l.failed = fmt.Errorf("%w: %s: %w", ErrFailed, l.path, cause)
	return l.failed
}

// Last returns a copy-safe view of the most recent record's payload
// (nil, false when the log is empty). The returned slice must not be
// modified.
func (l *Log) Last() ([]byte, bool) {
	if l.last == nil {
		return nil, false
	}
	return l.last, true
}

// Append writes one record. Under SyncAlways the record is on stable
// storage when Append returns; under SyncNone a crash may lose it (and
// recovery will truncate any torn half-write).
//
// On a write error Append rolls the file back to the pre-append size,
// so a failed append leaves no torn bytes to poison later appends: the
// log remains usable and the error is transient (retryable). Only when
// the rollback itself fails, or when Sync fails, does the log become
// sticky-failed (ErrFailed).
func (l *Log) Append(payload []byte) error {
	if l.failed != nil {
		return l.failed
	}
	rec := AppendRecord(make([]byte, 0, headerSize+len(payload)), payload)
	l.unsynced = true
	n, err := l.f.Write(rec)
	if err == nil && n < len(rec) {
		err = io.ErrShortWrite
	}
	if err != nil {
		if n > 0 {
			// Remove the torn bytes and reposition the write offset to
			// the rollback point (truncate alone does not move the
			// offset; a later write past EOF would leave a NUL hole).
			if terr := l.f.Truncate(l.size); terr != nil {
				return l.fail(fmt.Errorf("append failed (%v) and rollback truncate failed: %w", err, terr))
			}
			if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
				return l.fail(fmt.Errorf("append failed (%v) and rollback seek failed: %w", err, serr))
			}
		}
		return fmt.Errorf("journal: appending to %s (rolled back): %w", l.path, err)
	}
	if l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			// fsyncgate: after a failed fsync the kernel may have
			// dropped the dirty pages and a retry can "succeed" without
			// persisting anything. Never retry on this fd.
			return l.fail(fmt.Errorf("fsync after append: %w", err))
		}
		l.unsynced = false
	}
	l.n++
	l.size += int64(len(rec))
	l.last = append(l.last[:0], payload...)
	return nil
}

// Sync flushes pending appends to stable storage regardless of policy.
// It issues no fsync when nothing changed since the last one (under
// SyncAlways, after any successful Append or Compact). A Sync failure
// is sticky (see Append): the log refuses further use until reopened.
func (l *Log) Sync() error {
	if l.failed != nil {
		return l.failed
	}
	if !l.unsynced {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(fmt.Errorf("fsync: %w", err))
	}
	l.unsynced = false
	return nil
}

// ForEach replays every valid record from the start of the log in
// order. The payload slice passed to fn is only valid for the call.
func (l *Log) ForEach(fn func(payload []byte) error) error {
	buf, err := l.fsys.ReadFile(l.path)
	if err != nil {
		return err
	}
	if int64(len(buf)) > l.size {
		buf = buf[:l.size]
	}
	recs, _ := Scan(buf)
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs the directory holding path so a just-completed rename
// is durable. Platforms and filesystems that do not support fsync on
// directories report EINVAL/ENOTSUP/ENOTTY, which is not a failure —
// there is nothing stronger available there. Real I/O errors are
// returned.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.ENOTTY) {
			return nil
		}
		return err
	}
	return nil
}

// WriteFileAtomic replaces the file at path with data so that a crash
// at any point leaves the old file or the new one, never a mix. It is
// the one atomic rewrite behind Compact, Repair and cmd/bench's report:
// a temp file in path's directory gets data in one Write (a short
// write is an error), is fsynced, closed, given its mode and renamed
// over path, and then the directory is fsynced so the rename is
// durable. A failure before the rename removes the temp file and
// leaves path untouched. renamed reports whether the rename happened;
// after it, a non-nil err is the directory fsync's: the new file is in
// place but the rename may not survive a crash.
//
// The new file keeps the mode of the file it replaces, or gets the
// mode OpenFS creates (0644 less the umask) when path does not exist.
// Like the directory fsync, the chmod goes to the real OS; every other
// step goes through fsys.
func WriteFileAtomic(fsys faultfs.FS, path string, data []byte) (renamed bool, err error) {
	perm := 0o644 &^ umask
	if fi, err := fsys.Stat(path); err == nil {
		perm = fi.Mode().Perm()
	}
	tmp, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return false, err
	}
	tmpName := tmp.Name()
	n, err := tmp.Write(data)
	if err == nil && n < len(data) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmpName, perm)
	}
	if err == nil {
		err = fsys.Rename(tmpName, path)
	}
	if err != nil {
		fsys.Remove(tmpName)
		return false, err
	}
	if err := syncDir(path); err != nil {
		return true, fmt.Errorf("journal: fsync of %s after renaming over %s: %w", filepath.Dir(path), filepath.Base(path), err)
	}
	return true, nil
}

// Compact atomically replaces the log's contents with the given
// records (typically just the latest snapshot) through
// WriteFileAtomic, so a crash at any point leaves either the old log or
// the new one — never a mix. A failure before the rename leaves the log
// untouched and usable. A directory-fsync failure after the rename is
// surfaced (the rename may not be durable) and sticky-fails the log,
// but the in-memory handle is swapped to the renamed file first so no
// appends could land on the unlinked inode.
func (l *Log) Compact(keep [][]byte) error {
	if l.failed != nil {
		return l.failed
	}
	var buf []byte
	for _, rec := range keep {
		buf = AppendRecord(buf, rec)
	}
	renamed, dirErr := WriteFileAtomic(l.fsys, l.path, buf)
	if !renamed {
		return dirErr
	}
	// Swap the handle to the new file and reposition for appending.
	// This happens even when the directory fsync failed: the old fd
	// points at an unlinked inode, and appends there would be silently
	// lost — the sticky failure below stops them either way, but the
	// handle must match the visible file for the reopen path.
	f, err := l.fsys.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return err
	}
	l.f.Close()
	l.f = f
	l.n = len(keep)
	l.size = size
	l.unsynced = false
	if len(keep) > 0 {
		l.last = append(l.last[:0], keep[len(keep)-1]...)
	} else {
		l.last = nil
	}
	if dirErr != nil {
		return l.fail(dirErr)
	}
	return nil
}

// Close releases the file handle and the advisory writer lock. The
// log must not be used afterwards.
func (l *Log) Close() error {
	err := l.f.Close()
	if lerr := releaseLock(l.lock); err == nil {
		err = lerr
	}
	l.lock = nil
	return err
}
