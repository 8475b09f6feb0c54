// Package drainpool coordinates a fault-tolerant distributed drain of
// one table-search instance: a coordinator partitions a suspended
// checkpoint's open frontier into independent subtree shards
// (feasibility.Partition), hands each shard to a worker process under
// a time-boxed lease, and merges the shard outcomes
// (feasibility.Merge) into the next generation's checkpoint or the
// final verdict.
//
// Fault model: everything may crash. Workers run at-least-once — a
// crashed, wedged or lease-expired worker is reassigned with capped
// exponential backoff, and the merge step dedupes per shard id, so a
// slow twin finishing late is harmless. The coordinator journals its
// state (partition, leases, shard completions, verdict) through
// internal/journal; a coordinator killed -9 recovers the lease table
// on reopen, adopts workers that are still alive (their shard-journal
// flocks make them observable), and re-derives everything else
// deterministically from the partition record. The pool journal's own
// flock guarantees a single live coordinator per directory.
package drainpool

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
)

// ErrSuspended reports a drain stopped resumable: the pool journal
// holds a partition record (plus any shard completions) from which the
// next Run continues.
var ErrSuspended = errors.New("drainpool: drain suspended (resumable)")

// errWideEnough aborts the in-process frontier expansion once the
// frontier can feed every shard. It travels through the solver's
// OnCheckpoint error path, which is terminal by design — the expansion
// keeps the captured checkpoint itself.
var errWideEnough = errors.New("drainpool: frontier wide enough")

// WorkerSpec is everything a launcher needs to start one worker
// process for one shard attempt.
type WorkerSpec struct {
	Gen, Shard, Attempt int
	JournalPath         string
	Budget              int
	CheckpointEvery     int
	SolverWorkers       int
	Heartbeat           time.Duration
}

// Config parameterizes a coordinator run.
type Config struct {
	// Dir is the journal directory: pool.journal plus one journal per
	// (generation, shard). Sharing it — a mount, for multi-machine —
	// is the entire distribution mechanism.
	Dir string
	// Instance identifies the drain when the directory holds no prior
	// state: the drain starts from the instance's root.
	Instance feasibility.Instance
	// Shards is the partition width per generation.
	Shards int
	// MaxProcs caps concurrently running workers (0: Shards).
	MaxProcs int
	// Lease is how long a worker may go without journal growth before
	// its lease expires and the shard is reassigned (0: 30s).
	Lease time.Duration
	// Poll is the coordinator's monitoring cadence (0: 150ms).
	Poll time.Duration
	// WorkerBudget bounds each worker leg's expansion units (0:
	// unlimited — shards run to their outcome).
	WorkerBudget int
	// CheckpointEvery is the workers' checkpoint cadence in branches
	// (0: 64).
	CheckpointEvery int
	// SolverWorkers sizes each worker's in-process search pool (0: 1).
	SolverWorkers int
	// Heartbeat is the workers' liveness-append cadence (0: Lease/4,
	// capped at 1s).
	Heartbeat time.Duration
	// MaxAttempts bounds attempts per shard per generation (0: 8).
	MaxAttempts int
	// BackoffBase and BackoffCap shape the reassignment backoff
	// (0: 100ms base, 5s cap). Attempt n waits base·2ⁿ⁻¹ plus jitter,
	// capped.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// MaxGenerations stops the run resumable after that many
	// partition/run/merge cycles (0: run to the verdict).
	MaxGenerations int
	// Launch builds the worker process for a spec. Required: the
	// coordinator never guesses its own binary. cmd/drain passes a
	// self-exec launcher; tests re-exec the test binary.
	Launch func(WorkerSpec) *exec.Cmd
	// Logf receives progress lines (nil: silent).
	Logf func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxProcs <= 0 {
		cfg.MaxProcs = cfg.Shards
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 30 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 150 * time.Millisecond
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 64
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.Lease / 4
		if cfg.Heartbeat > time.Second {
			cfg.Heartbeat = time.Second
		}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// Validate reports every configuration problem at once (errors.Join),
// the same fail-fast contract the service and CLIs use.
func (cfg Config) Validate() error {
	var errs []error
	if cfg.Dir == "" {
		errs = append(errs, errors.New("journal directory (Dir) is required"))
	}
	if cfg.Shards < 1 {
		errs = append(errs, fmt.Errorf("Shards must be >= 1, got %d", cfg.Shards))
	}
	if cfg.Launch == nil {
		errs = append(errs, errors.New("a worker Launch function is required"))
	}
	if err := cfg.Instance.Validate(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return fmt.Errorf("drainpool: invalid config: %w", errors.Join(errs...))
	}
	return nil
}

func poolJournalPath(dir string) string { return filepath.Join(dir, "pool.journal") }

func shardJournalPath(dir string, gen, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-g%03d-s%03d.journal", gen, shard))
}

// Run drives the drain to its verdict (or to a resumable suspension:
// ErrSuspended on context cancellation or MaxGenerations). Calling Run
// again over the same directory resumes exactly where the last
// coordinator — dead or alive when it stopped — left off; a journaled
// verdict is returned idempotently without any work.
func Run(ctx context.Context, cfg Config) (feasibility.Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return feasibility.Result{}, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return feasibility.Result{}, err
	}
	plog, err := journal.Open(poolJournalPath(cfg.Dir), journal.SyncAlways)
	if err != nil {
		var le *journal.LockedError
		if errors.As(err, &le) {
			return feasibility.Result{}, fmt.Errorf("drainpool: another coordinator (pid %d) owns %s: %w", le.HolderPID, cfg.Dir, err)
		}
		return feasibility.Result{}, err
	}
	defer plog.Close()

	c := &coordinator{cfg: cfg, plog: plog}
	return c.run(ctx)
}

type coordinator struct {
	cfg  Config
	plog *journal.Log

	gen      int
	shards   int // partition width of the current generation
	base     *feasibility.Checkpoint
	done     map[int]feasibility.ShardResult
	attempts map[int]int
}

// recover replays the pool journal. It returns the journaled verdict
// if one exists; otherwise c.base/gen/shards/done/attempts reflect the
// newest partition record (base stays nil for a fresh directory).
func (c *coordinator) recover() (*feasibility.Result, error) {
	var verdict *feasibility.Result
	c.done = map[int]feasibility.ShardResult{}
	c.attempts = map[int]int{}
	err := c.plog.ForEach(func(p []byte) error {
		if len(p) == 0 {
			return errors.New("drainpool: empty pool journal record")
		}
		switch p[0] {
		case recPartition:
			gen, shards, raw, err := decPartition(p)
			if err != nil {
				return err
			}
			ck, err := feasibility.UnmarshalCheckpoint(raw)
			if err != nil {
				return err
			}
			c.gen, c.shards, c.base = gen, shards, ck
			c.done = map[int]feasibility.ShardResult{}
			c.attempts = map[int]int{}
		case recLease:
			gen, shard, attempt, _, err := decLease(p)
			if err != nil {
				return err
			}
			if gen == c.gen && attempt > c.attempts[shard] {
				c.attempts[shard] = attempt
			}
		case recDone:
			gen, shard, raw, err := decDone(p)
			if err != nil {
				return err
			}
			if gen != c.gen {
				return nil
			}
			r, err := feasibility.UnmarshalShardResult(raw)
			if err != nil {
				return err
			}
			if _, ok := c.done[shard]; !ok { // first report wins: idempotent merge input
				c.done[shard] = *r
			}
		case recVerdict:
			res, err := feasibility.UnmarshalResult(p[1:])
			if err != nil {
				return err
			}
			verdict = &res
		case recHeartbeat:
			// informational only
		default:
			return fmt.Errorf("drainpool: unknown pool journal record tag %q", p[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return verdict, nil
}

func (c *coordinator) run(ctx context.Context) (feasibility.Result, error) {
	verdict, err := c.recover()
	if err != nil {
		return feasibility.Result{}, err
	}
	if verdict != nil {
		c.cfg.Logf("verdict already journaled: impossible=%v tier=%d", verdict.Impossible, verdict.Tier)
		return *verdict, nil
	}
	recovered := c.base != nil
	if recovered {
		c.cfg.Logf("recovered generation %d: %d shards, %d already done", c.gen, c.shards, len(c.done))
	} else {
		c.shards = c.cfg.Shards // valid even if we suspend before the first partition
		root, err := feasibility.RootCheckpoint(c.cfg.Instance.Solver())
		if err != nil {
			return feasibility.Result{}, err
		}
		c.base = root
	}

	for cycle := 0; ; cycle++ {
		if c.cfg.MaxGenerations > 0 && cycle >= c.cfg.MaxGenerations {
			if err := c.persistBase(); err != nil {
				return feasibility.Result{}, err
			}
			c.cfg.Logf("generation budget (%d) reached; suspending", c.cfg.MaxGenerations)
			return feasibility.Result{}, ErrSuspended
		}
		if !recovered {
			// Widen the frontier until every shard gets a subtree, then
			// open the generation with a fresh partition record. Compacting
			// to that single record also retires the previous generation's
			// lease/done history, which the new base fully subsumes.
			final, err := c.expand(ctx)
			if err != nil {
				if errors.Is(err, ErrSuspended) {
					if perr := c.persistBase(); perr != nil {
						return feasibility.Result{}, perr
					}
				}
				return feasibility.Result{}, err
			}
			if final != nil {
				return c.finish(*final)
			}
			c.gen++
			c.shards = c.cfg.Shards
			c.done = map[int]feasibility.ShardResult{}
			c.attempts = map[int]int{}
			if err := c.persistBase(); err != nil {
				return feasibility.Result{}, err
			}
		}
		recovered = false

		parts, err := c.base.Partition(c.shards)
		if err != nil {
			return feasibility.Result{}, err
		}
		st := c.base.Stats()
		c.cfg.Logf("generation %d: tier %d (%d/%d), %d open branches across %d shards, %d done",
			c.gen, st.Tier, st.TierIndex+1, st.TierCount, st.FrontierNodes, len(parts), len(c.done))
		if err := c.runGeneration(ctx, parts); err != nil {
			return feasibility.Result{}, err
		}
		results := make([]feasibility.ShardResult, 0, len(parts))
		for shard := 0; shard < len(parts); shard++ {
			r, ok := c.done[shard]
			if !ok {
				return feasibility.Result{}, fmt.Errorf("drainpool: generation %d finished without a result for shard %d", c.gen, shard)
			}
			results = append(results, r)
		}
		res, next, err := c.base.Merge(len(parts), results)
		if err != nil {
			return feasibility.Result{}, err
		}
		c.cleanupGeneration(len(parts))
		if res != nil {
			return c.finish(*res)
		}
		c.base = next
	}
}

// finish journals the verdict and returns it. The verdict record lands
// after the current partition record, so recovery prefers it.
func (c *coordinator) finish(res feasibility.Result) (feasibility.Result, error) {
	raw, err := feasibility.MarshalResult(res)
	if err != nil {
		return feasibility.Result{}, err
	}
	if err := c.plog.Append(encVerdict(raw)); err != nil {
		return feasibility.Result{}, err
	}
	c.cfg.Logf("verdict: impossible=%v tier=%d tables=%d units=%d",
		res.Impossible, res.Tier, res.TablesExplored, res.ExpansionUnits)
	return res, nil
}

// persistBase makes c.base the journal's sole partition record
// (atomic compaction), from which everything else is re-derivable.
func (c *coordinator) persistBase() error {
	raw, err := c.base.MarshalBinary()
	if err != nil {
		return err
	}
	return c.plog.Compact([][]byte{encPartition(c.gen, c.shards, raw)})
}

// expand runs the drain in-process (single worker, deterministic)
// until the frontier is at least Shards wide, the tier escalates, or
// the drain finishes. Non-nil final means the drain reached its
// verdict during expansion.
func (c *coordinator) expand(ctx context.Context) (final *feasibility.Result, err error) {
	for {
		if c.base.Stats().FrontierNodes >= c.cfg.Shards {
			return nil, nil
		}
		s, err := c.base.NewSolver()
		if err != nil {
			return nil, err
		}
		s.Workers = 1
		s.StopAfterTier = true
		s.CheckpointEvery = 1
		var captured *feasibility.Checkpoint
		s.OnCheckpoint = func(cp *feasibility.Checkpoint) error {
			if cp.Stats().FrontierNodes >= c.cfg.Shards {
				captured = cp
				return errWideEnough
			}
			return nil
		}
		res, cp, err := s.Resume(ctx, c.base)
		switch {
		case errors.Is(err, errWideEnough) && captured != nil:
			c.base = captured
		case err == nil && res.Impossible:
			return &res, nil
		case err == nil && res.SurvivorTable != nil:
			st := c.base.Stats()
			if st.TierIndex == st.TierCount-1 {
				return &res, nil
			}
			next, aerr := c.base.AdvanceTier(res.SurvivorTable, res, s.PruneExport())
			if aerr != nil {
				return nil, aerr
			}
			c.cfg.Logf("expansion: tier %d survived, escalating", st.Tier)
			c.base = next
		case err != nil && cp != nil:
			// Context cancellation mid-expansion: keep the progress.
			c.base = cp
			return nil, fmt.Errorf("%w: %w", ErrSuspended, err)
		default:
			return nil, err
		}
	}
}

// worker tracks one running shard attempt: either a subprocess this
// coordinator launched, or an adopted orphan — a live worker from a
// previous coordinator, observable only through its shard-journal
// flock and growth.
type worker struct {
	shard    int
	attempt  int
	cmd      *exec.Cmd
	exitCh   chan error
	exited   bool
	adopted  bool
	pid      int
	lastSize int64
	deadline time.Time
}

func (c *coordinator) runGeneration(ctx context.Context, parts []*feasibility.Checkpoint) error {
	pending := map[int]bool{}
	for shard := range parts {
		if _, ok := c.done[shard]; !ok {
			pending[shard] = true
		}
	}
	running := map[int]*worker{}
	backoffUntil := map[int]time.Time{}
	defer func() {
		for _, w := range running {
			c.killWorker(w)
		}
	}()
	for len(c.done) < len(parts) {
		if ctx.Err() != nil {
			c.cfg.Logf("context canceled; suspending generation %d (%d/%d shards done)", c.gen, len(c.done), len(parts))
			return fmt.Errorf("%w: %w", ErrSuspended, ctx.Err())
		}
		// Launch (or adopt) work for pending shards, lowest id first.
		ids := make([]int, 0, len(pending))
		for shard := range pending {
			ids = append(ids, shard)
		}
		sort.Ints(ids)
		now := time.Now()
		for _, shard := range ids {
			if len(running) >= c.cfg.MaxProcs {
				break
			}
			if now.Before(backoffUntil[shard]) {
				continue
			}
			w, err := c.startShard(parts, shard)
			if err != nil {
				return err
			}
			if w == nil { // launch failed; backoff like a crash
				c.noteCrash(shard, backoffUntil)
				if c.attempts[shard] >= c.cfg.MaxAttempts {
					return fmt.Errorf("drainpool: shard %d failed to launch after %d attempts", shard, c.attempts[shard])
				}
				continue
			}
			running[shard] = w
			delete(pending, shard)
		}
		// Monitor running workers.
		for shard, w := range running {
			path := shardJournalPath(c.cfg.Dir, c.gen, shard)
			if !w.adopted && !w.exited {
				select {
				case <-w.exitCh:
					w.exited = true
				default:
				}
			}
			res, size := c.scanShardResult(path)
			if res != nil {
				raw, err := res.MarshalBinary()
				if err != nil {
					return err
				}
				if err := c.plog.Append(encDone(c.gen, shard, raw)); err != nil {
					return err
				}
				c.done[shard] = *res
				delete(running, shard)
				if !w.adopted && !w.exited {
					// Result journaled but the process is still flushing;
					// it owes nothing more.
					go func(w *worker) { <-w.exitCh }(w)
				}
				c.cfg.Logf("generation %d: shard %d done (%d/%d)", c.gen, shard, len(c.done), len(parts))
				continue
			}
			if size > w.lastSize {
				// Journal growth is the liveness signal: extend the lease.
				w.lastSize = size
				w.deadline = time.Now().Add(c.cfg.Lease)
				if err := c.plog.Append(encPoolHeartbeat(c.gen, shard, size)); err != nil {
					return err
				}
				continue
			}
			crashed := false
			if w.adopted {
				if _, locked := journal.LockHolder(path); !locked {
					crashed = true // the orphan died without a result
				}
			} else if w.exited {
				crashed = true
			}
			if !crashed && time.Now().After(w.deadline) {
				c.cfg.Logf("generation %d: shard %d lease expired (no journal growth for %v); killing holder", c.gen, shard, c.cfg.Lease)
				c.killWorker(w)
				crashed = true
			}
			if crashed {
				delete(running, shard)
				pending[shard] = true
				c.noteCrash(shard, backoffUntil)
				if c.attempts[shard] >= c.cfg.MaxAttempts {
					return fmt.Errorf("drainpool: shard %d of generation %d failed %d attempts; giving up (no shard is silently lost)",
						shard, c.gen, c.attempts[shard])
				}
				c.cfg.Logf("generation %d: shard %d worker lost (attempt %d); reassigning after backoff", c.gen, shard, c.attempts[shard])
			}
		}
		time.Sleep(c.cfg.Poll)
	}
	return nil
}

// startShard seeds the shard journal (idempotently) and launches a
// worker for it — or adopts a live orphan already holding the journal.
// A nil worker with nil error means the launch failed softly.
func (c *coordinator) startShard(parts []*feasibility.Checkpoint, shard int) (*worker, error) {
	path := shardJournalPath(c.cfg.Dir, c.gen, shard)
	if pid, locked := journal.LockHolder(path); locked {
		// A previous coordinator's worker is still on the shard: adopt it
		// under a fresh lease instead of double-running it immediately.
		c.cfg.Logf("generation %d: shard %d adopted (live worker pid %d)", c.gen, shard, pid)
		w := &worker{shard: shard, attempt: c.attempts[shard], adopted: true, pid: pid, deadline: time.Now().Add(c.cfg.Lease)}
		if fi, err := os.Stat(path); err == nil {
			w.lastSize = fi.Size()
		}
		if err := c.plog.Append(encLease(c.gen, shard, w.attempt, w.deadline.UnixNano())); err != nil {
			return nil, err
		}
		return w, nil
	}
	if err := c.seedShardJournal(path, parts[shard], shard); err != nil {
		return nil, err
	}
	c.attempts[shard]++
	attempt := c.attempts[shard]
	spec := WorkerSpec{
		Gen:             c.gen,
		Shard:           shard,
		Attempt:         attempt,
		JournalPath:     path,
		Budget:          c.cfg.WorkerBudget,
		CheckpointEvery: c.cfg.CheckpointEvery,
		SolverWorkers:   c.cfg.SolverWorkers,
		Heartbeat:       c.cfg.Heartbeat,
	}
	deadline := time.Now().Add(c.cfg.Lease)
	if err := c.plog.Append(encLease(c.gen, shard, attempt, deadline.UnixNano())); err != nil {
		return nil, err
	}
	cmd := c.cfg.Launch(spec)
	if cmd == nil {
		return nil, errors.New("drainpool: Launch returned no command")
	}
	if err := cmd.Start(); err != nil {
		c.cfg.Logf("generation %d: shard %d attempt %d failed to start: %v", c.gen, shard, attempt, err)
		return nil, nil
	}
	w := &worker{shard: shard, attempt: attempt, cmd: cmd, exitCh: make(chan error, 1), deadline: deadline}
	if fi, err := os.Stat(path); err == nil {
		w.lastSize = fi.Size()
	}
	go func() { w.exitCh <- cmd.Wait() }()
	return w, nil
}

// seedShardJournal writes the shard's meta and initial checkpoint
// records. Seeding is idempotent per record, not per file: a
// coordinator killed between the two appends leaves a journal with
// meta but no checkpoint, and the recovering coordinator must repair
// it rather than hand workers an unrunnable shard. Progress a previous
// attempt journaled (later checkpoints, even a result) is preserved.
func (c *coordinator) seedShardJournal(path string, ck *feasibility.Checkpoint, shard int) error {
	log, err := journal.Open(path, journal.SyncAlways)
	if err != nil {
		if errors.Is(err, journal.ErrLocked) {
			return nil // a live worker owns it; it is necessarily seeded
		}
		return err
	}
	defer log.Close()
	hasMeta, hasCkpt := false, false
	if err := log.ForEach(func(p []byte) error {
		if len(p) == 0 {
			return nil
		}
		switch p[0] {
		case recShardMeta:
			hasMeta = true
		case recShardCkpt:
			hasCkpt = true
		}
		return nil
	}); err != nil {
		return err
	}
	if !hasMeta {
		if err := log.Append(encShardMeta(c.gen, shard)); err != nil {
			return err
		}
	}
	if hasCkpt {
		return nil
	}
	raw, err := ck.MarshalBinary()
	if err != nil {
		return err
	}
	return log.Append(encShardCkpt(raw))
}

// scanShardResult reads the shard journal lock-free and returns its
// terminal result, if any, plus the current valid size (the liveness
// measure).
func (c *coordinator) scanShardResult(path string) (*feasibility.ShardResult, int64) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0
	}
	recs, valid := journal.Scan(buf)
	for i := len(recs) - 1; i >= 0; i-- {
		if len(recs[i]) > 0 && recs[i][0] == recShardDone {
			r, err := feasibility.UnmarshalShardResult(recs[i][1:])
			if err == nil {
				return r, int64(valid)
			}
			c.cfg.Logf("warning: %s has an undecodable result record: %v", path, err)
		}
	}
	return nil, int64(valid)
}

// noteCrash arms the capped exponential backoff (with jitter) before
// the shard may relaunch. Attempts are counted at launch (startShard),
// so the current count is the number of attempts that have now failed.
func (c *coordinator) noteCrash(shard int, backoffUntil map[int]time.Time) {
	n := c.attempts[shard]
	if n < 1 {
		n = 1
	}
	d := c.cfg.BackoffBase << uint(min(n-1, 16))
	if d > c.cfg.BackoffCap {
		d = c.cfg.BackoffCap
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	backoffUntil[shard] = time.Now().Add(d)
}

func (c *coordinator) killWorker(w *worker) {
	if w.adopted {
		if w.pid > 0 {
			syscall.Kill(w.pid, syscall.SIGKILL)
		}
		return
	}
	if w.exited || w.cmd == nil || w.cmd.Process == nil {
		return
	}
	w.cmd.Process.Kill()
	select {
	case <-w.exitCh:
	case <-time.After(2 * time.Second):
	}
	w.exited = true
}

// cleanupGeneration removes the merged generation's shard journals
// (and their lock sidecars): every result is embedded in the pool
// journal's done records, and generation-stamped paths are never
// reused, so nothing can reopen them.
func (c *coordinator) cleanupGeneration(shards int) {
	for shard := 0; shard < shards; shard++ {
		path := shardJournalPath(c.cfg.Dir, c.gen, shard)
		if pid, locked := journal.LockHolder(path); locked {
			// A duplicate attempt is still running past the merge; its
			// result is already superseded. Stop it before unlinking.
			syscall.Kill(pid, syscall.SIGKILL)
		}
		os.Remove(path)
		os.Remove(path + ".lock")
	}
}
