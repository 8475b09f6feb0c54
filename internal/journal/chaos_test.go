package journal

// The fault-matrix suite: every injected storage fault (ENOSPC, EIO,
// short write, sync failure, mid-file bit flip) crossed with the
// record shapes of every journal consumer (verdict store, drain
// checkpoints, pool lease records). The invariant under test is the
// acceptance criterion: the journal either stays usable (transient,
// rolled-back write errors), refuses further use loudly (sticky sync
// failure), or repairs via scavenge with the damage quarantined — it
// never silently loses a record that Append acknowledged as durable.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ringrobots/internal/faultfs"
)

// consumerShapes mimics what each journal consumer actually appends,
// so header/payload boundaries land where they land in production.
var consumerShapes = []struct {
	name string
	rec  func(i int) []byte
}{
	{"store-verdict", func(i int) []byte {
		// internal/verdictstore: 'V' + 32-byte instance key + verdict body.
		key := bytes.Repeat([]byte{byte(i)}, 32)
		return append(append([]byte{'V'}, key...), 0x01, byte(i), 0x09, 0x7b)
	}},
	{"drain-checkpoint", func(i int) []byte {
		// internal/feasibility checkpoints: multi-KB opaque blobs.
		b := bytes.Repeat([]byte{0xc0 | byte(i)}, 2048+137*i)
		b[0] = 'C'
		return b
	}},
	{"pool-lease", func(i int) []byte {
		// internal/drainpool: small typed records.
		return []byte{'L', byte(i), byte(i >> 8), 0, 1}
	}},
}

func openInjected(t *testing.T, seed int64) (*faultfs.Injector, *Log, string) {
	t.Helper()
	in := faultfs.NewInjector(faultfs.OS{}, seed)
	path := filepath.Join(t.TempDir(), "chaos.log")
	l, err := OpenFS(in, path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return in, l, path
}

func mustReopenRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	l, err := Open(path, SyncNone)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	var recs [][]byte
	if err := l.ForEach(func(p []byte) error {
		recs = append(recs, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFaultMatrixTransientWriteErrors: ENOSPC, EIO and short writes on
// the append path roll back cleanly — the failed append reports an
// error, the log stays usable (not sticky), a retry of the same record
// succeeds, and reopen sees every acknowledged record.
func TestFaultMatrixTransientWriteErrors(t *testing.T) {
	faults := []struct {
		name string
		f    faultfs.Fault
	}{
		{"enospc", faultfs.ENOSPC()},
		{"eio", faultfs.EIO()},
		{"short-write", faultfs.ShortWrite()},
	}
	for _, shape := range consumerShapes {
		for _, fault := range faults {
			t.Run(shape.name+"/"+fault.name, func(t *testing.T) {
				in, l, path := openInjected(t, 7)
				var acked [][]byte
				for i := 0; i < 3; i++ {
					r := shape.rec(i)
					if err := l.Append(r); err != nil {
						t.Fatal(err)
					}
					acked = append(acked, r)
				}
				in.FailNth(faultfs.OpWrite, in.Count(faultfs.OpWrite)+1, fault.f)
				victim := shape.rec(3)
				err := l.Append(victim)
				if err == nil {
					t.Fatal("faulted append reported success")
				}
				if errors.Is(err, ErrFailed) || l.Failed() != nil {
					t.Fatalf("transient write error must not be sticky: %v / %v", err, l.Failed())
				}
				// Retry the exact same record: the rollback must have
				// left the file on the last durable boundary.
				if err := l.Append(victim); err != nil {
					t.Fatalf("retry after rollback: %v", err)
				}
				acked = append(acked, victim)
				if err := l.Append(shape.rec(4)); err != nil {
					t.Fatal(err)
				}
				acked = append(acked, shape.rec(4))
				l.Close()
				got := mustReopenRecords(t, path)
				if len(got) != len(acked) {
					t.Fatalf("reopen sees %d records, want %d", len(got), len(acked))
				}
				for i := range acked {
					if !bytes.Equal(got[i], acked[i]) {
						t.Fatalf("record %d differs after reopen", i)
					}
				}
			})
		}
	}
}

// TestFaultMatrixSyncFailureIsSticky: a failed fsync leaves the log
// sticky-failed — every later Append/Sync/Compact returns ErrFailed
// and, critically, never issues another fsync on the poisoned fd
// (verified by the injector's op counter). Acked records survive a
// crash-consistent view; the unacked one does not reappear as durable.
func TestFaultMatrixSyncFailureIsSticky(t *testing.T) {
	for _, shape := range consumerShapes {
		t.Run(shape.name, func(t *testing.T) {
			in, l, path := openInjected(t, 7)
			var acked [][]byte
			for i := 0; i < 3; i++ {
				r := shape.rec(i)
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
				acked = append(acked, r)
			}
			in.FailNth(faultfs.OpSync, in.Count(faultfs.OpSync)+1, faultfs.EIO())
			if err := l.Append(shape.rec(3)); !errors.Is(err, ErrFailed) {
				t.Fatalf("append with failing fsync = %v, want ErrFailed", err)
			}
			syncsAfter := in.Count(faultfs.OpSync)
			if err := l.Append(shape.rec(4)); !errors.Is(err, ErrFailed) {
				t.Fatalf("append on sticky log = %v, want ErrFailed", err)
			}
			if err := l.Sync(); !errors.Is(err, ErrFailed) {
				t.Fatalf("sync on sticky log = %v, want ErrFailed", err)
			}
			if err := l.Compact(nil); !errors.Is(err, ErrFailed) {
				t.Fatalf("compact on sticky log = %v, want ErrFailed", err)
			}
			if got := in.Count(faultfs.OpSync); got != syncsAfter {
				t.Fatalf("sticky log issued %d more fsyncs on the poisoned fd", got-syncsAfter)
			}
			// Crash now: only what fsync acknowledged is durable.
			l.Close()
			if err := in.CrashUnsynced(); err != nil {
				t.Fatal(err)
			}
			got := mustReopenRecords(t, path)
			if len(got) != len(acked) {
				t.Fatalf("crash-consistent reopen sees %d records, want the %d acked", len(got), len(acked))
			}
			for i := range acked {
				if !bytes.Equal(got[i], acked[i]) {
					t.Fatalf("acked record %d lost or corrupted", i)
				}
			}
		})
	}
}

// TestFaultMatrixBitFlipRepairs: a silently corrupted record with live
// records after it makes reopen refuse (ErrCorrupt) rather than
// truncate, and Repair recovers everything else with the damaged bytes
// quarantined byte-exact.
func TestFaultMatrixBitFlipRepairs(t *testing.T) {
	for _, shape := range consumerShapes {
		t.Run(shape.name, func(t *testing.T) {
			in, l, path := openInjected(t, 99)
			for i := 0; i < 3; i++ {
				if err := l.Append(shape.rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			in.FailNth(faultfs.OpWrite, in.Count(faultfs.OpWrite)+1, faultfs.BitFlip())
			if err := l.Append(shape.rec(3)); err != nil {
				t.Fatalf("bit-flip append must look successful, got %v", err)
			}
			if err := l.Append(shape.rec(4)); err != nil {
				t.Fatal(err)
			}
			l.Close()

			_, err := Open(path, SyncNone)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("reopen over latent corruption = %v, want CorruptError", err)
			}
			raw, _ := os.ReadFile(path)
			rep, err := Repair(faultfs.OS{}, path)
			if err != nil {
				t.Fatal(err)
			}
			if rep.RecordsKept != 4 || len(rep.SpansQuarantined) != 1 {
				t.Fatalf("repair = %+v, want 4 kept / 1 span", rep)
			}
			// Quarantine is byte-exact: the sidecar record reproduces
			// the damaged span at its reported offset.
			qbuf, err := os.ReadFile(rep.QuarantinePath)
			if err != nil {
				t.Fatal(err)
			}
			qrecs, _ := Scan(qbuf)
			if len(qrecs) != 1 {
				t.Fatalf("quarantine records = %d", len(qrecs))
			}
			off := int(binary.LittleEndian.Uint64(qrecs[0]))
			if off != rep.SpansQuarantined[0].Off || !bytes.Equal(qrecs[0][8:], raw[off:rep.SpansQuarantined[0].End]) {
				t.Fatal("quarantined bytes are not byte-exact")
			}
			got := mustReopenRecords(t, path)
			want := [][]byte{shape.rec(0), shape.rec(1), shape.rec(2), shape.rec(4)}
			if len(got) != len(want) {
				t.Fatalf("repaired journal has %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("repaired record %d differs", i)
				}
			}
		})
	}
}

// TestEnospcSweepNeverLosesAckedRecords injects ENOSPC at every write
// index in turn and, with one retry allowed per append, asserts the
// final reopen contains exactly the acknowledged records — the
// rollback invariant holds wherever the fault lands.
func TestEnospcSweepNeverLosesAckedRecords(t *testing.T) {
	const appends = 6
	for nth := 1; nth <= appends; nth++ {
		t.Run(fmt.Sprintf("fail-write-%d", nth), func(t *testing.T) {
			in, l, path := openInjected(t, int64(nth))
			in.FailNth(faultfs.OpWrite, nth, faultfs.ENOSPC())
			var acked [][]byte
			for i := 0; i < appends; i++ {
				r := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{'x'}, i*17)))
				err := l.Append(r)
				if err != nil && !errors.Is(err, ErrFailed) {
					err = l.Append(r) // one retry, as a real caller would
				}
				if err == nil {
					acked = append(acked, r)
				}
			}
			l.Close()
			got := mustReopenRecords(t, path)
			if len(got) != len(acked) {
				t.Fatalf("reopen: %d records, want %d acked", len(got), len(acked))
			}
			for i := range acked {
				if !bytes.Equal(got[i], acked[i]) {
					t.Fatalf("acked record %d differs", i)
				}
			}
		})
	}
}

// TestCrashConsistentViewSyncNone: under SyncNone, a crash keeps the
// explicitly-synced prefix and drops the unsynced tail; recovery then
// truncates cleanly with no phantom records.
func TestCrashConsistentViewSyncNone(t *testing.T) {
	in := faultfs.NewInjector(faultfs.OS{}, 3)
	path := filepath.Join(t.TempDir(), "crash.log")
	l, err := OpenFS(in, path, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if err := l.Append([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: the unsynced tail evaporates. (Close first only to release
	// the flock for the reopen — close is not a sync, and the injector's
	// durable watermark moved only at the explicit Sync above.)
	l.Close()
	if err := in.CrashUnsynced(); err != nil {
		t.Fatal(err)
	}
	got := mustReopenRecords(t, path)
	if len(got) != 3 {
		t.Fatalf("after crash: %d records, want the 3 synced", len(got))
	}
	for i, r := range got {
		if len(r) != 1 || r[0] != byte('a'+i) {
			t.Fatalf("record %d = %q", i, r)
		}
	}
}

// TestCompactTempSyncFailureIsRetryable: a failed fsync on the
// compaction TEMP file aborts the compact before the rename, leaving
// the live journal untouched and healthy (the poisoned fd is the temp
// file's, discarded with it — unlike a journal-fd fsync failure, a
// retry opens a fresh temp file and is safe). The old log must be
// byte-intact, the log not sticky, the retry must succeed, and no temp
// litter may remain.
func TestCompactTempSyncFailureIsRetryable(t *testing.T) {
	in, l, path := openInjected(t, 11)
	for i := 0; i < 4; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	in.FailNth(faultfs.OpSync, in.Count(faultfs.OpSync)+1, faultfs.EIO())
	if err := l.Compact([][]byte{{9}}); err == nil {
		t.Fatal("compact with failing temp fsync reported success")
	}
	if l.Failed() != nil {
		t.Fatalf("temp-file fsync failure must not poison the journal fd: %v", l.Failed())
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("aborted compact modified the live journal")
	}
	if err := l.Compact([][]byte{{9}}); err != nil {
		t.Fatalf("compact retry: %v", err)
	}
	if last, _ := l.Last(); !bytes.Equal(last, []byte{9}) {
		t.Fatalf("Last after retried compact = %v", last)
	}
	if matches, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp*")); len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}
}

// TestCompactWriteFaultIsRetryable: Compact writes its whole image to
// the temp file in one Write, so a short write or ENOSPC there aborts
// the compact before the rename. The live journal must be
// byte-identical, no temp file may remain, the log must stay usable
// (not sticky) for appends, and a later Compact must succeed.
func TestCompactWriteFaultIsRetryable(t *testing.T) {
	faults := []struct {
		name string
		f    faultfs.Fault
	}{
		{"short-write", faultfs.ShortWrite()},
		{"enospc", faultfs.ENOSPC()},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			in, l, path := openInjected(t, 13)
			shape := consumerShapes[1].rec // multi-KB checkpoint records
			for i := 0; i < 4; i++ {
				if err := l.Append(shape(i)); err != nil {
					t.Fatal(err)
				}
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			keep := [][]byte{shape(2), shape(3)}
			writes := in.Count(faultfs.OpWrite)
			in.FailNth(faultfs.OpWrite, writes+1, fault.f)
			if err := l.Compact(keep); err == nil {
				t.Fatal("compact with a failing temp-file write reported success")
			}
			if got := in.Count(faultfs.OpWrite) - writes; got != 1 {
				t.Fatalf("compact issued %d writes, want 1", got)
			}
			if l.Failed() != nil {
				t.Fatalf("temp-file write failure must not poison the journal: %v", l.Failed())
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
				t.Fatal("aborted compact modified the live journal")
			}
			if matches, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp*")); len(matches) != 0 {
				t.Fatalf("leftover temp files: %v", matches)
			}
			if l.Len() != 4 || l.Size() != int64(len(before)) {
				t.Fatalf("aborted compact changed Len/Size to %d/%d", l.Len(), l.Size())
			}
			if err := l.Append(shape(4)); err != nil {
				t.Fatalf("append after aborted compact: %v", err)
			}
			keep = append(keep, shape(4))
			if err := l.Compact(keep); err != nil {
				t.Fatalf("compact retry: %v", err)
			}
			l.Close()
			got := mustReopenRecords(t, path)
			if len(got) != len(keep) {
				t.Fatalf("reopen after retried compact: %d records, want %d", len(got), len(keep))
			}
			for i := range keep {
				if !bytes.Equal(got[i], keep[i]) {
					t.Fatalf("record %d differs after retried compact", i)
				}
			}
		})
	}
}
