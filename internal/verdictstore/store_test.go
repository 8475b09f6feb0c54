package verdictstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ringrobots/internal/faultfs"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
)

// solveDirect runs the solver for an instance with package defaults —
// the differential oracle every store test compares against.
func solveDirect(t *testing.T, inst feasibility.Instance) feasibility.Result {
	t.Helper()
	s := inst.Solver()
	s.Workers = 1
	res, err := s.Solve()
	if err != nil {
		t.Fatalf("direct solve %s: %v", inst, err)
	}
	return res
}

func TestVerdictEncodeDecodeRoundTrip(t *testing.T) {
	// A survivor-bearing verdict from a crippled-adversary solve and an
	// impossibility verdict exercise both encoding branches.
	surv := feasibility.Instance{N: 5, K: 3, MaxCycleLen: 2, PendingTiers: []int{0}}
	imp := feasibility.Instance{N: 7, K: 3}
	for i, inst := range []feasibility.Instance{surv, imp} {
		want := VerdictOf(solveDirect(t, inst))
		if wantSurvivor := i == 0; (want.Survivor != nil) != wantSurvivor {
			t.Fatalf("%s: survivor presence %v, case expects %v", inst, want.Survivor != nil, wantSurvivor)
		}
		enc := EncodeVerdict(want)
		if !bytes.Equal(enc, EncodeVerdict(want)) {
			t.Fatalf("%s: encoding is not deterministic", inst)
		}
		got, err := DecodeVerdict(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", inst, err)
		}
		if !bytes.Equal(EncodeVerdict(got), enc) {
			t.Fatalf("%s: round trip changed the verdict", inst)
		}
		if got.Impossible != want.Impossible || got.Tier != want.Tier ||
			got.TablesExplored != want.TablesExplored || got.ExpansionUnits != want.ExpansionUnits {
			t.Fatalf("%s: round trip: got %+v want %+v", inst, got, want)
		}
		if len(got.Survivor) != len(want.Survivor) {
			t.Fatalf("%s: survivor size %d != %d", inst, len(got.Survivor), len(want.Survivor))
		}
		for obs, d := range want.Survivor {
			if got.Survivor[obs] != d {
				t.Fatalf("%s: survivor entry mismatch at %v", inst, obs)
			}
		}
		// Corruption must be detected, not absorbed.
		if _, err := DecodeVerdict(enc[:len(enc)-1]); err == nil {
			t.Errorf("%s: truncated verdict decoded without error", inst)
		}
		if _, err := DecodeVerdict(append(append([]byte(nil), enc...), 7)); err == nil {
			t.Errorf("%s: trailing garbage decoded without error", inst)
		}
	}
}

// survivorVerdictHex is EncodeVerdict of the survivor verdict that
// TestVerdictEncodeDecodeRoundTrip builds — (5,3), cycle cap 2, tiers
// {0}: tier 0, 11 tables, 316 units, a 4-entry survivor — as written
// before verdictstore shared feasibility's table encoding.
const survivorVerdictHex = "02000bf8040485808080808080880c0085808080808080880c000086808080808080880c" +
	"0083808080808080880c000288808080808080900c0088808080808080900c0000a0808080808080900c0082808080808080900c0002"

// TestSurvivorVerdictBytesPinned: a survivor verdict encodes to the
// pinned bytes, and the pinned bytes decode to the same verdict.
func TestSurvivorVerdictBytesPinned(t *testing.T) {
	inst := feasibility.Instance{N: 5, K: 3, MaxCycleLen: 2, PendingTiers: []int{0}}
	v := VerdictOf(solveDirect(t, inst))
	if got := hex.EncodeToString(EncodeVerdict(v)); got != survivorVerdictHex {
		t.Fatalf("EncodeVerdict = %s\nwant            %s", got, survivorVerdictHex)
	}
	raw, err := hex.DecodeString(survivorVerdictHex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeVerdict(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Impossible || got.Tier != 0 || got.TablesExplored != 11 || got.ExpansionUnits != 316 ||
		!maps.Equal(got.Survivor, v.Survivor) || len(got.Survivor) != 4 {
		t.Fatalf("pinned verdict decodes to %+v, want %+v", got, v)
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	instA := feasibility.Instance{N: 7, K: 3}.Normalized()
	instB := feasibility.Instance{N: 7, K: 4}.Normalized()
	vA := VerdictOf(solveDirect(t, instA))

	st, err := OpenFS(faultfs.OS{}, path, journal.SyncAlways)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := st.PutVerdict(instA.Key(), vA); err != nil {
		t.Fatalf("put verdict: %v", err)
	}
	// A suspended drain's checkpoint for instB.
	sB := instB.Solver()
	sB.Workers = 1
	sB.MaxExpansions = 150
	_, cp, err := sB.SolveContext(context.Background())
	if cp == nil {
		t.Fatalf("expected a budget suspension, got err=%v", err)
	}
	raw, err := cp.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	if err := st.PutCheckpoint(instB.Key(), raw); err != nil {
		t.Fatalf("put checkpoint: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, err := OpenFS(faultfs.OS{}, path, journal.SyncAlways)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	got, ok := st2.Verdict(instA.Key())
	if !ok || !bytes.Equal(EncodeVerdict(got), EncodeVerdict(vA)) {
		t.Fatalf("verdict for %s lost or changed across reopen", instA)
	}
	gotCp, ok := st2.Checkpoint(instB.Key())
	if !ok || !bytes.Equal(gotCp, raw) {
		t.Fatalf("checkpoint for %s lost or changed across reopen", instB)
	}
	if _, ok := st2.Checkpoint(instA.Key()); ok {
		t.Fatalf("instance with a verdict still reports a checkpoint")
	}
}

func TestStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	st, err := OpenFS(faultfs.OS{}, path, journal.SyncNone)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	inst := feasibility.Instance{N: 7, K: 3}.Normalized()
	v := VerdictOf(solveDirect(t, inst))
	if err := st.PutVerdict(inst.Key(), v); err != nil {
		t.Fatalf("put verdict: %v", err)
	}
	// Pile up superseded checkpoints for one unfinished instance.
	instB := feasibility.Instance{N: 8, K: 5}.Normalized()
	sB := instB.Solver()
	sB.Workers = 1
	sB.MaxExpansions = 200
	_, cp, _ := sB.SolveContext(context.Background())
	if cp == nil {
		t.Fatal("expected a budget suspension")
	}
	raw, _ := cp.MarshalBinary()
	for i := 0; i < 20; i++ {
		if err := st.PutCheckpoint(instB.Key(), raw); err != nil {
			t.Fatalf("put checkpoint %d: %v", i, err)
		}
	}
	_, _, records, _ := st.Counts()
	if records != 21 {
		t.Fatalf("journal holds %d records before compaction, want 21", records)
	}
	// 19 superseded checkpoints are dead bytes far outweighing the live
	// verdict + latest checkpoint, and the log is past the floor of 5.
	if compacted, err := st.CompactIfAbove(5); err != nil || !compacted {
		t.Fatalf("compact = %v, %v; want a compaction", compacted, err)
	}
	_, _, records, size := st.Counts()
	if records != 2 {
		t.Fatalf("journal holds %d records after compaction, want 2 (verdict + latest checkpoint)", records)
	}
	if live := st.LiveBytes(); size != live {
		t.Fatalf("compacted journal is %d bytes, tracked live bytes %d", size, live)
	}
	// Under the floor: a no-op.
	if compacted, err := st.CompactIfAbove(5); err != nil || compacted {
		t.Fatalf("compact under the floor = %v, %v; want a no-op", compacted, err)
	}
	// Past the floor but with one superseded checkpoint against a live
	// verdict + checkpoint: dead bytes do not outweigh live ones yet.
	if err := st.PutCheckpoint(instB.Key(), raw); err != nil {
		t.Fatalf("put checkpoint: %v", err)
	}
	if compacted, err := st.CompactIfAbove(2); err != nil || compacted {
		t.Fatalf("compact with dead <= live bytes = %v, %v; want a no-op", compacted, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st2, err := OpenFS(faultfs.OS{}, path, journal.SyncNone)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer st2.Close()
	if got, ok := st2.Verdict(inst.Key()); !ok || !bytes.Equal(EncodeVerdict(got), EncodeVerdict(v)) {
		t.Fatalf("verdict lost by compaction")
	}
	if gotCp, ok := st2.Checkpoint(instB.Key()); !ok || !bytes.Equal(gotCp, raw) {
		t.Fatalf("latest checkpoint lost by compaction")
	}
}

// testKey is a synthetic 32-byte instance key.
func testKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return string(sum[:])
}

// TestStoreLiveBytesAccounting drives a randomized sequence of verdict
// and checkpoint writes, conditional compactions and reopens against a
// model of the live records. After every step the store's tracked live
// bytes must equal the size of a full compaction of the model, and
// after every CompactIfAbove(limit) the journal must be under the
// record floor or within twice the live bytes.
func TestStoreLiveBytesAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	st, err := OpenFS(faultfs.OS{}, path, journal.SyncNone)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer func() { st.Close() }()
	rng := rand.New(rand.NewSource(5))
	verdicts := map[string][]byte{}    // key -> encoded verdict
	checkpoints := map[string][]byte{} // key -> latest checkpoint
	want := func() int64 {
		var n int64
		for _, v := range verdicts {
			n += journal.RecordSize(1 + instanceKeyLen + len(v))
		}
		for _, cp := range checkpoints {
			n += journal.RecordSize(1 + instanceKeyLen + len(cp))
		}
		return n
	}
	for step := 0; step < 2000; step++ {
		key := testKey(rng.Intn(40))
		switch op := rng.Intn(20); {
		case op < 4:
			v := Verdict{Impossible: rng.Intn(2) == 0, Tier: rng.Intn(4),
				TablesExplored: rng.Intn(1 << 20), ExpansionUnits: rng.Int63n(1 << 40)}
			if err := st.PutVerdict(key, v); err != nil {
				t.Fatalf("step %d: put verdict: %v", step, err)
			}
			verdicts[key] = EncodeVerdict(v)
			delete(checkpoints, key)
		case op < 15:
			raw := make([]byte, 1+rng.Intn(300))
			rng.Read(raw)
			if err := st.PutCheckpoint(key, raw); err != nil {
				t.Fatalf("step %d: put checkpoint: %v", step, err)
			}
			if _, done := verdicts[key]; !done {
				checkpoints[key] = raw
			}
		case op < 19:
			limit := 1 + rng.Intn(30)
			if _, err := st.CompactIfAbove(limit); err != nil {
				t.Fatalf("step %d: compact: %v", step, err)
			}
			_, _, records, size := st.Counts()
			if live := st.LiveBytes(); records > limit && size > 2*live {
				t.Fatalf("step %d: after CompactIfAbove(%d): %d records, %d bytes > 2×%d live",
					step, limit, records, size, live)
			}
		default:
			if err := st.Close(); err != nil {
				t.Fatalf("step %d: close: %v", step, err)
			}
			if st, err = OpenFS(faultfs.OS{}, path, journal.SyncNone); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
		}
		if got, w := st.LiveBytes(), want(); got != w {
			t.Fatalf("step %d: tracked live bytes %d, a full compaction writes %d", step, got, w)
		}
		if step%250 == 249 {
			// Force a full compaction regardless of the trigger.
			st.mu.Lock()
			err := st.compactLocked()
			st.mu.Unlock()
			if err != nil {
				t.Fatalf("step %d: forced compaction: %v", step, err)
			}
			if _, _, _, size := st.Counts(); size != st.LiveBytes() {
				t.Fatalf("step %d: forced compaction left %d bytes, tracked live %d", step, size, st.LiveBytes())
			}
		}
	}
	for key, enc := range verdicts {
		if v, ok := st.Verdict(key); !ok || !bytes.Equal(EncodeVerdict(v), enc) {
			t.Fatalf("verdict for key %x lost or changed", key[:4])
		}
	}
	for key, raw := range checkpoints {
		if got, ok := st.Checkpoint(key); !ok || !bytes.Equal(got, raw) {
			t.Fatalf("checkpoint for key %x lost or changed", key[:4])
		}
	}
}

// countingFS counts journal renames and the bytes written through
// appends (files opened with OpenFile) versus compaction images (temp
// files).
type countingFS struct {
	faultfs.FS
	renames             int
	appended, compacted int64
}

type countingFile struct {
	faultfs.File
	n *int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	*f.n += int64(n)
	return n, err
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, n: &c.appended}, nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, n: &c.compacted}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames++
	return c.FS.Rename(oldpath, newpath)
}

// TestStoreCompactionAmortized fills a store the way the service does —
// every verdict preceded by two checkpoints for its key, with a
// CompactIfAbove(256) after each write — and checks the rewrite cost is
// amortized: compaction never writes more bytes than were appended, and
// when a verdict's superseded checkpoints are comparable in size to the
// verdict the number of rewrites grows only logarithmically (a
// compact-on-every-append-past-the-floor rule would rewrite ~2,200
// times here). With large checkpoints rewrites are more frequent, but
// in total they still write fewer bytes than were appended.
func TestStoreCompactionAmortized(t *testing.T) {
	for _, tc := range []struct {
		cpBytes    int
		maxRenames int // 0: only the byte bound is asserted
	}{
		{cpBytes: 64, maxRenames: 40},
		{cpBytes: 4096},
	} {
		t.Run(fmt.Sprintf("checkpoint-%dB", tc.cpBytes), func(t *testing.T) {
			fsys := &countingFS{FS: faultfs.OS{}}
			st, err := OpenFS(fsys, filepath.Join(t.TempDir(), "store.log"), journal.SyncNone)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer st.Close()
			raw := bytes.Repeat([]byte{0xc7}, tc.cpBytes)
			const verdicts, floor = 1000, 256
			compactions := 0
			compact := func() {
				compacted, err := st.CompactIfAbove(floor)
				if err != nil {
					t.Fatalf("compact: %v", err)
				}
				if compacted {
					compactions++
				}
			}
			for i := 0; i < verdicts; i++ {
				key := testKey(i)
				for j := 0; j < 2; j++ {
					if err := st.PutCheckpoint(key, raw); err != nil {
						t.Fatalf("put checkpoint: %v", err)
					}
					compact()
				}
				if err := st.PutVerdict(key, Verdict{Impossible: true, Tier: i % 3, TablesExplored: i, ExpansionUnits: int64(i)}); err != nil {
					t.Fatalf("put verdict: %v", err)
				}
				compact()
			}
			t.Logf("%d renames; %d bytes appended, %d bytes written by compaction; journal %d bytes for %d live",
				fsys.renames, fsys.appended, fsys.compacted, st.log.Size(), st.LiveBytes())
			if fsys.renames != compactions {
				t.Fatalf("%d renames for %d compactions", fsys.renames, compactions)
			}
			if tc.maxRenames > 0 && fsys.renames > tc.maxRenames {
				t.Fatalf("%d compaction renames for %d verdicts, want <= %d", fsys.renames, verdicts, tc.maxRenames)
			}
			if fsys.compacted > fsys.appended {
				t.Fatalf("compaction wrote %d bytes, more than the %d appended", fsys.compacted, fsys.appended)
			}
			if _, _, records, size := st.Counts(); records > floor && size > 2*st.LiveBytes() {
				t.Fatalf("journal of %d bytes exceeds twice its %d live bytes", size, st.LiveBytes())
			}
		})
	}
}

// FuzzStoreRecord drives the store record decoders with arbitrary
// bytes: header splitting and verdict decoding must never panic, and
// any verdict that decodes must survive a canonical re-encode/decode
// round trip (arbitrary input may use non-minimal varints, so byte
// equality with the input is not promised — semantic stability is).
func FuzzStoreRecord(f *testing.F) {
	inst := feasibility.Instance{N: 7, K: 3}.Normalized()
	key := inst.Key()
	f.Add(encodeRecord(recVerdict, key, EncodeVerdict(Verdict{Impossible: true, Tier: 2, TablesExplored: 9, ExpansionUnits: 123})))
	surv := feasibility.Table{feasibility.ObsKey{}: feasibility.DStay}
	f.Add(encodeRecord(recVerdict, key, EncodeVerdict(Verdict{Tier: 1, Survivor: surv})))
	f.Add(encodeRecord(recCheckpoint, key, []byte("not-a-real-checkpoint")))
	f.Add([]byte{recVerdict})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, rec []byte) {
		typ, key, body, err := decodeRecordHeader(rec)
		if err != nil {
			return
		}
		if len(key) != instanceKeyLen {
			t.Fatalf("decoded key of %d bytes", len(key))
		}
		if typ == recVerdict {
			v, err := DecodeVerdict(body)
			if err != nil {
				return
			}
			canon := EncodeVerdict(v)
			v2, err := DecodeVerdict(canon)
			if err != nil {
				t.Fatalf("canonical re-encode does not decode: %v", err)
			}
			if !bytes.Equal(EncodeVerdict(v2), canon) {
				t.Fatalf("canonical encoding is not a fixed point")
			}
		}
	})
}

// TestPutVerdictFsyncsOnce: under either append policy a verdict is on
// stable storage when PutVerdict returns, and it costs exactly one
// fsync — the append's own under SyncAlways, the explicit Sync of the
// pending appends (an unsynced checkpoint and the verdict) under
// SyncNone. A crash that drops every unsynced write keeps the verdict.
func TestPutVerdictFsyncsOnce(t *testing.T) {
	key := feasibility.Instance{N: 7, K: 3}.Normalized().Key()
	for _, policy := range []journal.SyncPolicy{journal.SyncAlways, journal.SyncNone} {
		in := faultfs.NewInjector(faultfs.OS{}, 1)
		path := filepath.Join(t.TempDir(), "store.journal")
		st, err := OpenFS(in, path, policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutCheckpoint(key, []byte("checkpoint")); err != nil {
			t.Fatal(err)
		}
		before := in.Count(faultfs.OpSync)
		v := Verdict{Impossible: true, Tier: 2, TablesExplored: 9, ExpansionUnits: 123}
		if err := st.PutVerdict(key, v); err != nil {
			t.Fatal(err)
		}
		if got := in.Count(faultfs.OpSync) - before; got != 1 {
			t.Errorf("policy %d: PutVerdict issued %d fsyncs, want 1", policy, got)
		}
		st.Close()
		if err := in.CrashUnsynced(); err != nil {
			t.Fatal(err)
		}
		st, err = OpenFS(faultfs.OS{}, path, policy)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := st.Verdict(key); !ok || got.TablesExplored != v.TablesExplored {
			t.Errorf("policy %d: verdict after crash = %+v, %v", policy, got, ok)
		}
		st.Close()
	}
}
