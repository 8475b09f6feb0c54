package drainpool

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"

	"ringrobots/internal/faultfs"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
)

// WorkerOptions tunes one shard run. The shard's identity — instance,
// tier, frontier — and its heartbeat come entirely from the shard
// journal, so a worker needs nothing but the journal path (which is
// what makes multi-machine operation a shared journal directory away).
type WorkerOptions struct {
	// Budget bounds expansion units for this leg (0: solver default).
	Budget int
	// CheckpointEvery journals a checkpoint every that many branches
	// (0: only the terminal result is journaled).
	CheckpointEvery int
	// SolverWorkers sizes the in-process search pool (0: one worker,
	// keeping shard legs deterministic).
	SolverWorkers int
	// CrashAfterBranches, when positive, SIGKILLs the worker's own
	// process after that many branches — the fault suite's crashpoint.
	CrashAfterBranches int64
	// Logf receives progress lines (nil: silent).
	Logf func(format string, args ...any)
	// FS is the filesystem seam the shard journal goes through; nil
	// means the real OS. Testing and storage fault injection only.
	FS faultfs.FS
}

// RunShard executes one leased shard: open the shard journal (taking
// its flock — the lease-holding token other processes can observe),
// resume the latest journaled checkpoint under StopAfterTier while
// appending a heartbeat at the cadence the coordinator wrote into the
// shard's meta record, and append the terminal ShardResult. Execution
// is at-least-once safe: if a previous attempt already journaled a
// result, RunShard returns immediately without recomputing, and a
// crashed attempt's periodic checkpoints let the next attempt resume
// mid-shard instead of restarting. Periodic checkpoints are journaled
// behind the search (feasibility.WriteBehind): every one but the newest
// is durable while the shard runs, and all of them precede the result
// record.
//
// Storage failure surrenders the lease instead of wedging: if a
// heartbeat or checkpoint append fails, the solve is cancelled, the
// journal closed (releasing the flock — the cross-machine-visible
// lease token, which a coordinator pid-kill could never reclaim from
// another host), and RunShard returns the error; the coordinator sees
// the worker exit (or, for an adopted worker, drop its flock) and
// reassigns the shard. The terminal
// result append is retried a few times with backoff (transient
// ENOSPC-style errors are rolled back by the journal and safe to
// retry), except after a sticky fsync failure, where no append on
// this handle can succeed.
func RunShard(ctx context.Context, journalPath string, opt WorkerOptions) error {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	log, err := journal.OpenFS(fsys, journalPath, journal.SyncAlways)
	if err != nil {
		return err
	}
	defer log.Close()

	shard := -1
	var heartbeat time.Duration
	var ckptRaw []byte
	done := false
	err = log.ForEach(func(p []byte) error {
		if len(p) == 0 {
			return errors.New("drainpool: empty shard journal record")
		}
		switch p[0] {
		case recShardMeta:
			_, s, hb, err := decShardMeta(p)
			if err != nil {
				return err
			}
			shard, heartbeat = s, hb
		case recShardCkpt:
			ckptRaw = append(ckptRaw[:0], p[1:]...)
		case recShardDone:
			done = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	if shard < 0 {
		return fmt.Errorf("drainpool: %s has no shard meta record (not seeded by a coordinator?)", journalPath)
	}
	if done {
		logf("shard %d: result already journaled, nothing to do", shard)
		return nil
	}
	if ckptRaw == nil {
		return fmt.Errorf("drainpool: %s has no checkpoint to resume", journalPath)
	}
	ck, err := feasibility.UnmarshalCheckpoint(ckptRaw)
	if err != nil {
		return err
	}
	s, err := ck.NewSolver()
	if err != nil {
		return err
	}
	s.StopAfterTier = true // the coordinator's merge decides escalation
	s.Workers = 1
	if opt.SolverWorkers > 0 {
		s.Workers = opt.SolverWorkers
	}
	if opt.Budget > 0 {
		s.MaxExpansions = opt.Budget
	}

	// journal.Log is single-goroutine; the heartbeat ticker and the
	// checkpoint writer both append, so serialize them.
	var mu sync.Mutex
	appendRec := func(p []byte) error {
		mu.Lock()
		defer mu.Unlock()
		return log.Append(p)
	}
	// Storage-failure surrender: the first failed append cancels the
	// solve so the worker gives the lease back promptly instead of
	// burning it on a solve whose progress can no longer be journaled.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var failMu sync.Mutex
	var storageErr error
	noteStorageFailure := func(err error) {
		failMu.Lock()
		if storageErr == nil {
			storageErr = err
		}
		failMu.Unlock()
		cancelRun()
	}
	// Periodic checkpoints are journaled behind the search, one write in
	// flight; a failed write surrenders at once rather than at the next
	// barrier.
	s.CheckpointEvery = opt.CheckpointEvery
	ckpts := feasibility.WriteBehind(s, func(raw []byte) error {
		if err := appendRec(encShardCkpt(raw)); err != nil {
			noteStorageFailure(err)
			return err
		}
		return nil
	})
	if opt.CrashAfterBranches > 0 {
		s.BranchHook = func(done int64) {
			if done >= opt.CrashAfterBranches {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	stop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				// The append itself is the liveness signal: the
				// coordinator's lease extends only on journal growth, so a
				// wedged process that merely stays alive still loses its
				// lease. A failed beat means this worker can no longer
				// prove liveness OR journal progress — surrender.
				if err := appendRec([]byte{recShardBeat}); err != nil {
					logf("shard heartbeat append failed, surrendering lease: %v", err)
					noteStorageFailure(err)
					return
				}
			}
		}
	}()

	res, cp, err := s.Resume(runCtx, ck)
	// The result record must follow every checkpoint. A failed write has
	// already recorded itself through noteStorageFailure.
	_ = ckpts.Wait()
	close(stop)
	hbWG.Wait()

	failMu.Lock()
	serr := storageErr
	failMu.Unlock()
	if serr != nil {
		// The defer closes the journal, releasing the flock: the lease
		// is surrendered, and the coordinator reassigns this shard
		// (resuming from the last good checkpoint) once it sees the
		// worker go.
		return fmt.Errorf("drainpool: shard %d surrendering lease: journal append failed: %w", shard, serr)
	}

	r := feasibility.ShardResult{Shard: shard, Counters: res}
	r.Counters.SurvivorTable = nil
	switch {
	case err == nil && res.Impossible:
		r.Refuted = true
		r.Prune = s.PruneExport()
	case err == nil && res.SurvivorTable != nil:
		r.Survivor = res.SurvivorTable
		r.Prune = s.PruneExport()
	case err != nil && cp != nil:
		// Budget or cancellation: report the remaining frontier; the
		// coordinator re-suspends it into the merged checkpoint.
		r.Suspended = cp
	case err != nil:
		return fmt.Errorf("drainpool: shard %d failed: %w", shard, err)
	default:
		return fmt.Errorf("drainpool: shard %d ended without a classifiable outcome", shard)
	}
	raw, err := r.MarshalBinary()
	if err != nil {
		return err
	}
	// The terminal record is worth a few retries: journal write errors
	// are rolled back (no torn bytes), so re-appending is safe — but a
	// sticky fsync failure (journal.ErrFailed) can never succeed on
	// this handle, so surrender immediately there.
	doneRec := encShardDone(raw)
	var aerr error
	for attempt := 0; attempt < 3; attempt++ {
		if aerr = appendRec(doneRec); aerr == nil {
			break
		}
		if errors.Is(aerr, journal.ErrFailed) {
			break
		}
		time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
	}
	if aerr != nil {
		return fmt.Errorf("drainpool: shard %d surrendering lease: journal append failed: %w", shard, aerr)
	}
	switch {
	case r.Refuted:
		logf("shard %d: subtree refuted (%d tables)", shard, res.TablesExplored)
	case r.Survivor != nil:
		logf("shard %d: survivor found (%d entries)", shard, len(r.Survivor))
	default:
		logf("shard %d: suspended (%d open branches)", shard, r.Suspended.Stats().FrontierNodes)
	}
	return nil
}
