// Package drainpool coordinates a fault-tolerant distributed drain of
// one table-search instance: a coordinator partitions a suspended
// checkpoint's open frontier into independent subtree shards
// (feasibility.Partition), hands each shard to a worker process under
// a time-boxed lease, and merges the shard outcomes
// (feasibility.Merge) into the next generation's checkpoint or the
// final verdict.
//
// The coordinator waits on events, not on a clock: a launched worker's
// exit makes it read that shard's journal for the result, and the
// generation merges as soon as the last result is in. A timer wakes it
// only for liveness checks (every heartbeat, min(Lease/4, 1s): a stat
// of each running shard journal for growth), lease deadlines and
// backoff expiries.
//
// Fault model: everything may crash. Workers run at-least-once — a
// crashed, wedged or lease-expired worker is reassigned with capped
// exponential backoff, and the merge step dedupes per shard id, so a
// slow twin finishing late is harmless. A worker whose journal stops
// growing loses its lease within Lease + heartbeat of its last append.
// The coordinator journals its state (partition, leases, shard
// completions, verdict) through internal/journal; a coordinator killed
// -9 recovers the lease table on reopen, adopts workers that are still
// alive (their shard-journal flocks make them observable, and a dropped
// flock stands in for their exit), and re-derives everything else
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

	"ringrobots/internal/faultfs"
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
	// its lease expires, its process is killed and the shard is
	// reassigned (0: 30s). It is the pool's only liveness knob: the
	// heartbeat is min(Lease/4, 1s), written into each shard journal's
	// meta record for its workers to keep, and the coordinator looks for
	// growth (and probes adopted orphans' flocks) at the same rate. A
	// wedged worker loses its lease within Lease + heartbeat of its last
	// append; a worker that exits is collected at once, whatever the
	// lease.
	Lease time.Duration
	// WorkerBudget bounds each worker leg's expansion units (0:
	// unlimited — shards run to their outcome).
	WorkerBudget int
	// CheckpointEvery is the workers' checkpoint cadence in branches
	// (0: no periodic checkpoints; only the shard result is journaled).
	CheckpointEvery int
	// SolverWorkers sizes each worker's in-process search pool (0: 1).
	SolverWorkers int
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
	// FS is the filesystem seam the pool journal and the shard-journal
	// seeding go through; nil means the real OS. Testing and storage
	// fault injection only.
	FS faultfs.FS
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxProcs <= 0 {
		cfg.MaxProcs = cfg.Shards
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 30 * time.Second
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
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
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

// heartbeat is the workers' liveness-append cadence and the
// coordinator's liveness-check cadence: min(Lease/4, 1s).
func (cfg Config) heartbeat() time.Duration {
	return min(max(cfg.Lease/4, 1), time.Second)
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
	plog, err := journal.OpenFS(cfg.FS, poolJournalPath(cfg.Dir), journal.SyncAlways)
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
			// Older coordinators journaled observed growth; an
			// interrupted drain's journal can still hold such records.
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

// expand runs the drain in-process (single worker, deterministic,
// escalating the ladder on a survivor like any solve) until the
// frontier is at least Shards wide or the drain finishes. Non-nil final
// means the drain reached its verdict during expansion.
func (c *coordinator) expand(ctx context.Context) (final *feasibility.Result, err error) {
	if c.base.Stats().FrontierNodes >= c.cfg.Shards {
		return nil, nil
	}
	s, err := c.base.NewSolver()
	if err != nil {
		return nil, err
	}
	s.Workers = 1
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
		return nil, nil
	case err == nil:
		return &res, nil
	case cp != nil:
		// Context cancellation mid-expansion: keep the progress.
		c.base = cp
		return nil, fmt.Errorf("%w: %w", ErrSuspended, err)
	default:
		return nil, err
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
	exited   chan struct{} // closed once a launched worker's process is reaped
	adopted  bool
	pid      int
	lastSize int64
	deadline time.Time // lease expiry: Lease after journal growth was last seen
}

// generation is one runGeneration's state: which shards wait for a
// worker, which run, and when a lost shard may relaunch.
type generation struct {
	c            *coordinator
	parts        []*feasibility.Checkpoint
	pending      map[int]bool
	running      map[int]*worker
	backoffUntil map[int]time.Time
	exits        chan *worker  // fan-in of launched workers' exits
	gone         chan struct{} // closed when runGeneration returns
}

// runGeneration runs every shard of parts that has no result yet. It
// sleeps until a launched worker exits, the context ends, or one timer
// fires for the nearest liveness check (every heartbeat), lease
// deadline or backoff expiry. A shard journal is read for its result
// once: when its launched worker exits, or when an adopted orphan drops
// its flock or loses its lease.
func (c *coordinator) runGeneration(ctx context.Context, parts []*feasibility.Checkpoint) error {
	g := &generation{
		c:            c,
		parts:        parts,
		pending:      map[int]bool{},
		running:      map[int]*worker{},
		backoffUntil: map[int]time.Time{},
		exits:        make(chan *worker),
		gone:         make(chan struct{}),
	}
	for shard := range parts {
		if _, ok := c.done[shard]; !ok {
			g.pending[shard] = true
		}
	}
	defer func() {
		close(g.gone)
		for _, w := range g.running {
			c.killWorker(w)
		}
	}()
	heartbeat := c.cfg.heartbeat()
	nextCheck := time.Now().Add(heartbeat)
	for len(c.done) < len(parts) {
		if ctx.Err() != nil {
			c.cfg.Logf("context canceled; suspending generation %d (%d/%d shards done)", c.gen, len(c.done), len(parts))
			return fmt.Errorf("%w: %w", ErrSuspended, ctx.Err())
		}
		if err := g.launch(); err != nil {
			return err
		}
		var err error
		timer := time.NewTimer(time.Until(g.nextWake(nextCheck)))
		select {
		case <-ctx.Done():
		case w := <-g.exits:
			if g.running[w.shard] == w { // else it was collected at lease expiry
				err = g.collect(w)
			}
		case <-timer.C:
			err = g.checkLiveness()
			nextCheck = time.Now().Add(heartbeat)
		}
		timer.Stop()
		if err != nil {
			return err
		}
	}
	return nil
}

// launch starts (or adopts) work for pending shards, lowest id first,
// while MaxProcs allows and their backoff has run out.
func (g *generation) launch() error {
	c := g.c
	ids := make([]int, 0, len(g.pending))
	for shard := range g.pending {
		ids = append(ids, shard)
	}
	sort.Ints(ids)
	now := time.Now()
	for _, shard := range ids {
		if len(g.running) >= c.cfg.MaxProcs {
			break
		}
		if now.Before(g.backoffUntil[shard]) {
			continue
		}
		w, err := c.startShard(g.parts, shard)
		if err != nil {
			return err
		}
		if w == nil { // launch failed; backoff like a crash
			c.noteCrash(shard, g.backoffUntil)
			if c.attempts[shard] >= c.cfg.MaxAttempts {
				return fmt.Errorf("drainpool: shard %d failed to launch after %d attempts", shard, c.attempts[shard])
			}
			continue
		}
		if !w.adopted {
			go g.reap(w)
		}
		g.running[shard] = w
		delete(g.pending, shard)
	}
	return nil
}

// reap waits for a launched worker's process to end and reports it on
// exits, unless the generation has ended first. The exit status does
// not matter: the shard journal says whether the worker finished.
func (g *generation) reap(w *worker) {
	_ = w.cmd.Wait()
	close(w.exited)
	select {
	case g.exits <- w:
	case <-g.gone:
	}
}

// nextWake is the earliest of the next liveness check, a running
// worker's lease deadline and, while MaxProcs leaves room to launch, a
// pending shard's backoff expiry. Once MaxProcs is reached, only an exit
// or a liveness check frees a slot.
func (g *generation) nextWake(nextCheck time.Time) time.Time {
	wake := nextCheck
	for _, w := range g.running {
		if w.deadline.Before(wake) {
			wake = w.deadline
		}
	}
	if len(g.running) < g.c.cfg.MaxProcs {
		for shard := range g.pending {
			if t := g.backoffUntil[shard]; t.Before(wake) {
				wake = t
			}
		}
	}
	return wake
}

// checkLiveness extends the lease of every running worker whose shard
// journal grew since the last check, collects adopted orphans that
// dropped their flock, and collects workers past their lease deadline:
// a worker whose result is already durable is only slow to exit and is
// collected as done; any other is killed first. A check stats each
// journal and reads only those whose lease ran out.
func (g *generation) checkLiveness() error {
	c := g.c
	now := time.Now()
	for shard, w := range g.running {
		path := shardJournalPath(c.cfg.Dir, c.gen, shard)
		if w.adopted {
			if _, locked := journal.LockHolder(path); !locked {
				if err := g.collect(w); err != nil {
					return err
				}
				continue
			}
		}
		if fi, err := os.Stat(path); err == nil && fi.Size() > w.lastSize {
			// Journal growth is the liveness signal: extend the lease.
			w.lastSize = fi.Size()
			w.deadline = now.Add(c.cfg.Lease)
			continue
		}
		if now.Before(w.deadline) {
			continue
		}
		if c.readShardResult(path) == nil {
			c.cfg.Logf("generation %d: shard %d lease expired (no journal growth for %v); killing holder", c.gen, shard, c.cfg.Lease)
			c.killWorker(w)
		}
		if err := g.collect(w); err != nil {
			return err
		}
	}
	return nil
}

// collect reads the shard's result once its worker is gone or done
// (exited, past its lease, or an orphan that dropped its flock). It
// journals the result, or marks the shard lost and arms its backoff.
func (g *generation) collect(w *worker) error {
	c := g.c
	shard := w.shard
	delete(g.running, shard)
	if res := c.readShardResult(shardJournalPath(c.cfg.Dir, c.gen, shard)); res != nil {
		raw, err := res.MarshalBinary()
		if err != nil {
			return err
		}
		if err := c.plog.Append(encDone(c.gen, shard, raw)); err != nil {
			return err
		}
		c.done[shard] = *res
		c.cfg.Logf("generation %d: shard %d done (%d/%d)", c.gen, shard, len(c.done), len(g.parts))
		return nil
	}
	g.pending[shard] = true
	c.noteCrash(shard, g.backoffUntil)
	if c.attempts[shard] >= c.cfg.MaxAttempts {
		return fmt.Errorf("drainpool: shard %d of generation %d failed %d attempts; giving up (no shard is silently lost)",
			shard, c.gen, c.attempts[shard])
	}
	c.cfg.Logf("generation %d: shard %d worker lost (attempt %d); reassigning after backoff", c.gen, shard, c.attempts[shard])
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
	w := &worker{shard: shard, attempt: attempt, cmd: cmd, exited: make(chan struct{}), deadline: deadline}
	if fi, err := os.Stat(path); err == nil {
		w.lastSize = fi.Size()
	}
	return w, nil
}

// seedShardJournal writes the shard's meta record, carrying this
// coordinator's heartbeat, and its initial checkpoint. Seeding is
// idempotent per record, not per file: a coordinator killed between the
// two appends leaves a journal with meta but no checkpoint, and the
// recovering coordinator must repair it rather than hand workers an
// unrunnable shard. A recovering coordinator with another lease appends
// a newer meta record, which wins. Progress a previous attempt
// journaled (later checkpoints, even a result) is preserved.
func (c *coordinator) seedShardJournal(path string, ck *feasibility.Checkpoint, shard int) error {
	log, err := journal.OpenFS(c.cfg.FS, path, journal.SyncAlways)
	if err != nil {
		if errors.Is(err, journal.ErrLocked) {
			return nil // a live worker owns it; it is necessarily seeded
		}
		return err
	}
	defer log.Close()
	heartbeat := c.cfg.heartbeat()
	metaCurrent, hasCkpt := false, false
	if err := log.ForEach(func(p []byte) error {
		if len(p) == 0 {
			return nil
		}
		switch p[0] {
		case recShardMeta:
			_, _, hb, err := decShardMeta(p)
			metaCurrent = err == nil && hb == heartbeat
		case recShardCkpt:
			hasCkpt = true
		}
		return nil
	}); err != nil {
		return err
	}
	if !metaCurrent {
		if err := log.Append(encShardMeta(c.gen, shard, heartbeat)); err != nil {
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

// readShardResult reads the shard journal lock-free and returns its
// terminal result, if any.
func (c *coordinator) readShardResult(path string) *feasibility.ShardResult {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	recs, _ := journal.Scan(buf)
	for i := len(recs) - 1; i >= 0; i-- {
		if len(recs[i]) > 0 && recs[i][0] == recShardDone {
			r, err := feasibility.UnmarshalShardResult(recs[i][1:])
			if err == nil {
				return r
			}
			c.cfg.Logf("warning: %s has an undecodable result record: %v", path, err)
		}
	}
	return nil
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
		killPid(w.pid)
		return
	}
	w.cmd.Process.Kill()
	select {
	case <-w.exited:
	case <-time.After(2 * time.Second):
	}
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
			killPid(pid)
		}
		os.Remove(path)
		os.Remove(path + ".lock")
	}
}

// killPid SIGKILLs the process pid, a lock holder's recorded pid. It
// sends nothing for pid <= 0: a sidecar whose holder has not written
// its pid yet reads as 0, and kill(2) would signal the coordinator's
// own process group for 0 and every process it may signal for -1.
func killPid(pid int) {
	if pid > 0 {
		syscall.Kill(pid, syscall.SIGKILL)
	}
}
