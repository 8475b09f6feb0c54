package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ringrobots/internal/faultfs"
)

func openT(t *testing.T, path string, policy SyncPolicy) *Log {
	t.Helper()
	l, err := Open(path, policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	recs := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-record"), {0, 1, 2, 255}}
	l := openT(t, path, SyncAlways)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(recs))
	}
	if last, ok := l.Last(); !ok || !bytes.Equal(last, recs[len(recs)-1]) {
		t.Fatalf("Last = %q, %v", last, ok)
	}
	l.Close()

	l2 := openT(t, path, SyncNone)
	if l2.Len() != len(recs) {
		t.Fatalf("reopened Len = %d, want %d", l2.Len(), len(recs))
	}
	var got [][]byte
	if err := l2.ForEach(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d: got %q want %q", i, got[i], recs[i])
		}
	}
	// Appending after reopen continues the log.
	if err := l2.Append([]byte("post-reopen")); err != nil {
		t.Fatal(err)
	}
	if last, _ := l2.Last(); string(last) != "post-reopen" {
		t.Errorf("Last after reopen-append = %q", last)
	}
}

// TestTornTailTruncation crashes the writer at every possible byte
// offset of the final record and checks that recovery lands exactly on
// the previous record with no data loss before it.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	full := AppendRecord(nil, []byte("first"))
	sizeAfterFirst := len(full)
	full = AppendRecord(full, []byte("second-record"))

	for cut := sizeAfterFirst; cut < len(full); cut++ {
		path := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, SyncNone)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if l.Len() != 1 {
			t.Fatalf("cut=%d: Len = %d, want 1", cut, l.Len())
		}
		if last, _ := l.Last(); string(last) != "first" {
			t.Fatalf("cut=%d: Last = %q", cut, last)
		}
		if l.Size() != int64(sizeAfterFirst) {
			t.Fatalf("cut=%d: Size = %d, want %d", cut, l.Size(), sizeAfterFirst)
		}
		l.Close()
		// The file itself was truncated to the valid prefix.
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(sizeAfterFirst) {
			t.Fatalf("cut=%d: on-disk size %v err=%v", cut, fi.Size(), err)
		}
	}
}

// TestCorruptMidFileRefusesOpen flips one payload byte of the first
// record while the second stays intact: mid-file corruption. Open must
// refuse with a CorruptError (truncating would silently discard the
// intact record), and Repair must recover the intact record and
// quarantine the damaged span byte-exact, after which Open succeeds.
func TestCorruptMidFileRefusesOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.log")
	buf := AppendRecord(nil, []byte("victim"))
	victimLen := len(buf)
	buf = AppendRecord(buf, []byte("intact"))
	buf[headerSize] ^= 0x40 // first payload byte of record 0
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, SyncNone)
	var ce *CorruptError
	if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want CorruptError", err)
	}
	if ce.ValidBytes != 0 || ce.Recoverable != 1 {
		t.Fatalf("CorruptError = %+v, want ValidBytes=0 Recoverable=1", ce)
	}

	rep, err := Repair(faultfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordsKept != 1 || len(rep.SpansQuarantined) != 1 || rep.BytesQuarantined != victimLen {
		t.Fatalf("RepairReport = %+v, want 1 record kept, 1 span of %d bytes", rep, victimLen)
	}
	// The quarantine sidecar holds the damaged span byte-exact, tagged
	// with its original offset.
	qbuf, err := os.ReadFile(path + ".quarantine")
	if err != nil {
		t.Fatal(err)
	}
	qrecs, _ := Scan(qbuf)
	if len(qrecs) != 1 {
		t.Fatalf("quarantine records = %d, want 1", len(qrecs))
	}
	if off := binary.LittleEndian.Uint64(qrecs[0]); off != 0 {
		t.Fatalf("quarantined span offset = %d, want 0", off)
	}
	if !bytes.Equal(qrecs[0][8:], buf[:victimLen]) {
		t.Fatalf("quarantined bytes differ from damaged span")
	}

	l := openT(t, path, SyncNone)
	if l.Len() != 1 {
		t.Fatalf("repaired Len = %d, want 1", l.Len())
	}
	if last, _ := l.Last(); string(last) != "intact" {
		t.Fatalf("repaired record = %q, want intact", last)
	}
}

func TestGiantDeclaredLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "giant.log")
	buf := AppendRecord(nil, []byte("ok"))
	good := len(buf)
	// Header declaring a payload far beyond the file (and beyond
	// MaxRecordLen): must not be believed or allocated.
	buf = append(buf, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l := openT(t, path, SyncNone)
	if l.Len() != 1 || l.Size() != int64(good) {
		t.Fatalf("Len=%d Size=%d, want 1 record / %d bytes", l.Len(), l.Size(), good)
	}
}

func TestCompactKeepsLatestAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.log")
	l := openT(t, path, SyncAlways)
	for i := 0; i < 10; i++ {
		if err := l.Append(bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Size()
	keep := bytes.Repeat([]byte{9}, 100)
	if err := l.Compact([][]byte{keep}); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 || l.Size() >= before {
		t.Fatalf("after compact: Len=%d Size=%d (before %d)", l.Len(), l.Size(), before)
	}
	if last, _ := l.Last(); !bytes.Equal(last, keep) {
		t.Fatalf("Last after compact = %v", last[:4])
	}
	// The compacted log appends and reopens normally.
	if err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2 := openT(t, path, SyncNone)
	if l2.Len() != 2 {
		t.Fatalf("reopened compacted log Len = %d, want 2", l2.Len())
	}
	if last, _ := l2.Last(); string(last) != "tail" {
		t.Fatalf("Last = %q", last)
	}
	// No temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp*"))
	if len(matches) != 0 {
		t.Errorf("leftover temp files: %v", matches)
	}
}

// TestSyncSkipsWhenNothingPending: Sync fsyncs only when an append or
// a torn-tail truncation is not yet on stable storage. SyncAlways
// appends and Compact leave nothing pending.
func TestSyncSkipsWhenNothingPending(t *testing.T) {
	for _, tc := range []struct {
		policy SyncPolicy
		want   int // fsyncs issued by Append+Sync+Sync
	}{
		{SyncAlways, 1},
		{SyncNone, 1},
	} {
		in := faultfs.NewInjector(faultfs.OS{}, 1)
		l, err := OpenFS(in, filepath.Join(t.TempDir(), "j.log"), tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := in.Count(faultfs.OpSync); got != 0 {
			t.Errorf("policy %d: Sync of a fresh log issued %d fsyncs", tc.policy, got)
		}
		if err := l.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if got := in.Count(faultfs.OpSync); got != tc.want {
			t.Errorf("policy %d: Append+Sync+Sync issued %d fsyncs, want %d", tc.policy, got, tc.want)
		}
		if err := l.Append([]byte("s")); err != nil {
			t.Fatal(err)
		}
		if err := l.Compact([][]byte{[]byte("s")}); err != nil {
			t.Fatal(err)
		}
		before := in.Count(faultfs.OpSync)
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := in.Count(faultfs.OpSync) - before; got != 0 {
			t.Errorf("policy %d: Sync after Compact issued %d fsyncs", tc.policy, got)
		}
		l.Close()
	}
}

// TestRewriteKeepsMode: Compact and Repair leave the journal at the
// mode OpenFS created it with, not at the temp file's 0600; a rewrite
// keeps a mode set by hand, and WriteFileAtomic gives a new file the
// mode OpenFS would (0644 less the umask).
func TestRewriteKeepsMode(t *testing.T) {
	dir := t.TempDir()
	mode := func(path string) os.FileMode {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	path := filepath.Join(dir, "j.log")
	l := openT(t, path, SyncAlways)
	want := mode(path)
	if want != 0o644&^umask {
		t.Fatalf("OpenFS created mode %v, want %v", want, 0o644&^umask)
	}
	for _, r := range []string{"a", "b", "c"} {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact([][]byte{[]byte("c")}); err != nil {
		t.Fatal(err)
	}
	if got := mode(path); got != want {
		t.Fatalf("mode after Compact = %v, want %v", got, want)
	}
	l.Close()

	// Damage the middle of a three-record journal so Repair rewrites it.
	buf := AppendRecord(nil, []byte("x"))
	buf = AppendRecord(buf, []byte("victim"))
	buf = AppendRecord(buf, []byte("y"))
	buf[2*headerSize+1] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := Repair(faultfs.OS{}, path); err != nil || rep.RecordsKept != 2 {
		t.Fatalf("Repair = %+v, %v", rep, err)
	}
	if got := mode(path); got != want {
		t.Fatalf("mode after Repair = %v, want %v", got, want)
	}

	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	l = openT(t, path, SyncAlways)
	if err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if got := mode(path); got != 0o600 {
		t.Fatalf("mode after compacting a 0600 journal = %v, want 0600", got)
	}

	fresh := filepath.Join(dir, "report.json")
	if renamed, err := WriteFileAtomic(faultfs.OS{}, fresh, []byte("{}\n")); !renamed || err != nil {
		t.Fatalf("WriteFileAtomic = %v, %v", renamed, err)
	}
	if got := mode(fresh); got != want {
		t.Fatalf("new file mode = %v, want %v", got, want)
	}
}
