package drainpool

// Storage-fault suite for the worker: a shard worker whose journal
// starts failing must surrender its lease (close the journal,
// releasing the flock other processes watch) and return an error —
// never wedge holding a lease it can no longer heartbeat, which on a
// multi-machine pool the coordinator could not even pid-kill away.

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ringrobots/internal/faultfs"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
)

// seedShardJournal writes the meta + root-checkpoint records a
// coordinator would, for a wide ring whose drain runs long enough for
// faults to land mid-solve. The meta record sets the worker's
// heartbeat, which may be one no lease would give (an hour keeps beats
// out of a fault sequence).
func seedShardJournal(t *testing.T, path string, n, k int, heartbeat time.Duration) {
	t.Helper()
	s := feasibility.NewSolver(n, k)
	root, err := feasibility.RootCheckpoint(s)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := root.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	log, err := journal.Open(path, journal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(encShardMeta(1, 0, heartbeat)); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(encShardCkpt(raw)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerSurrendersLeaseOnHeartbeatFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-g001-s000.journal")
	// (3, 19): a wide-ring drain that runs far longer than the test —
	// only surrender can end it early. Both workers beat every 20ms.
	seedShardJournal(t, path, 19, 3, 20*time.Millisecond)

	in := faultfs.NewInjector(faultfs.OS{}, 5)
	// The journal is opened SyncAlways: seeding already happened on the
	// real FS, so the first injected syncs come from worker appends
	// (heartbeats, checkpoints). Fail the first one.
	in.FailNth(faultfs.OpSync, 1, faultfs.EIO())

	start := time.Now()
	err := RunShard(context.Background(), path, WorkerOptions{FS: in})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("worker with failing journal reported success")
	}
	if !strings.Contains(err.Error(), "surrendering lease") {
		t.Fatalf("err = %v, want a lease surrender", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("surrender took %v — the worker wedged on its lease", elapsed)
	}
	// The flock is released: another worker can take the shard over
	// immediately (here on healthy storage, resuming the checkpoint).
	if holder, locked := journal.LockHolder(path); locked {
		t.Fatalf("shard journal still flocked by pid %d after surrender", holder)
	}
	err = RunShard(context.Background(), path, WorkerOptions{Budget: 200})
	if err != nil {
		t.Fatalf("takeover worker on healthy storage: %v", err)
	}
}

// TestWorkerSurrendersOnCheckpointWriteFailure: same invariant via the
// checkpoint path — an ENOSPC on a periodic checkpoint append cancels
// the solve and surrenders rather than drain on without journaling
// progress.
func TestWorkerSurrendersOnCheckpointWriteFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-g001-s000.journal")
	seedShardJournal(t, path, 19, 3, time.Hour)

	in := faultfs.NewInjector(faultfs.OS{}, 5)
	// First worker append (heartbeat set long; CheckpointEvery=2 means
	// the first write is a checkpoint record).
	in.FailNth(faultfs.OpWrite, 1, faultfs.ENOSPC())

	err := RunShard(context.Background(), path, WorkerOptions{
		CheckpointEvery: 2,
		FS:              in,
	})
	if err == nil || !strings.Contains(err.Error(), "surrendering lease") {
		t.Fatalf("err = %v, want a lease surrender", err)
	}
	if _, locked := journal.LockHolder(path); locked {
		t.Fatal("shard journal still flocked after surrender")
	}
}

// TestWorkerResultNotLostToTransientError: a transient write error on
// the TERMINAL result append is retried (the journal rolled the failed
// write back), so a one-off ENOSPC does not cost the whole shard leg.
func TestWorkerResultNotLostToTransientError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-g001-s000.journal")
	// (7, 3): small enough to refute quickly. An hour-long heartbeat
	// keeps beats out of the op sequence.
	seedShardJournal(t, path, 7, 3, time.Hour)

	in := faultfs.NewInjector(faultfs.OS{}, 5)
	run := func() error {
		return RunShard(context.Background(), path, WorkerOptions{FS: in})
	}
	// Dry-run once on a scratch copy to learn which write is terminal:
	// with no checkpoints and no beats, it is the worker's only write.
	in.FailNth(faultfs.OpWrite, 1, faultfs.ENOSPC())
	if err := run(); err != nil {
		t.Fatalf("worker with transient terminal-write fault: %v", err)
	}
	// The result was journaled: a re-run is a no-op success.
	if err := run(); err != nil {
		t.Fatalf("re-run over journaled result: %v", err)
	}
	// And the journal replays cleanly with a done record.
	log, err := journal.Open(path, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	sawDone := false
	if err := log.ForEach(func(p []byte) error {
		if len(p) > 0 && p[0] == recShardDone {
			sawDone = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("no ShardDone record after retried append")
	}
}

// poolJournalFS sends the pool journal and its compaction temp files
// through in, and everything else (the shard journals) to the OS, so
// the injector counts pool-journal operations only.
type poolJournalFS struct {
	faultfs.OS
	in *faultfs.Injector
}

func (p poolJournalFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	if filepath.Base(name) == "pool.journal" {
		return p.in.OpenFile(name, flag, perm)
	}
	return p.OS.OpenFile(name, flag, perm)
}

func (p poolJournalFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	if strings.HasPrefix(pattern, "pool.journal") {
		return p.in.CreateTemp(dir, pattern)
	}
	return p.OS.CreateTemp(dir, pattern)
}

// TestPoolJournalSyncFailure: an EIO on a pool-journal fsync while a
// worker runs makes Run return the error (killing the worker) instead
// of hanging, and a rerun over the same directory on the real
// filesystem reaches the single-process verdict.
func TestPoolJournalSyncFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drain pool in -short mode")
	}
	inst := feasibility.Instance{N: 8, K: 5}
	want := oracleVerdict(t, inst)
	dir := t.TempDir()
	plan := &launchPlan{}
	cfg := testConfig(dir, inst, plan)
	launched := 0
	cfg.Launch = func(spec WorkerSpec) *exec.Cmd {
		launched++
		return plan.launch(spec)
	}
	in := faultfs.NewInjector(faultfs.OS{}, 1)
	cfg.FS = poolJournalFS{in: in}
	// Pool-journal fsyncs: the first generation's partition record
	// (compaction), then one lease per launched shard. The third fails
	// the second shard's lease while the first shard's worker runs.
	in.FailNth(faultfs.OpSync, 3, faultfs.EIO())

	errc := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), cfg)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("Run over a failing pool journal: err=%v, want EIO", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Run hung after a pool-journal fsync failure")
	}
	if launched == 0 {
		t.Fatal("no worker was running when the pool journal failed")
	}

	cfg.FS = nil
	got, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("rerun on the OS filesystem: %v", err)
	}
	checkAgainstOracle(t, got, want)
}
