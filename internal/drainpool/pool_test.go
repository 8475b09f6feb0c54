package drainpool

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
)

// The fault suite re-execs this test binary as worker (and coordinator)
// processes, env-gated like the checkpoint fault tests. Every worker is
// a real OS process so kill -9 is a real kill -9.
const (
	envWorker     = "RINGROBOTS_POOL_WORKER"
	envCoord      = "RINGROBOTS_POOL_COORD"
	envJournal    = "RINGROBOTS_POOL_JOURNAL"
	envDir        = "RINGROBOTS_POOL_DIR"
	envBudget     = "RINGROBOTS_POOL_BUDGET"
	envCkptEvery  = "RINGROBOTS_POOL_CKPT_EVERY"
	envCrashAfter = "RINGROBOTS_POOL_CRASH_AFTER"
	envWedge      = "RINGROBOTS_POOL_WEDGE"
	envExitDelay  = "RINGROBOTS_POOL_EXIT_DELAY"
	envNoPidDir   = "RINGROBOTS_POOL_NO_PID_DIR"
)

func atoiEnv(key string) int {
	n, _ := strconv.Atoi(os.Getenv(key))
	return n
}

// TestPoolWorkerHelper is the worker subprocess body, not a test.
func TestPoolWorkerHelper(t *testing.T) {
	if os.Getenv(envWorker) != "1" {
		t.Skip("subprocess helper")
	}
	path := os.Getenv(envJournal)
	if os.Getenv(envWedge) == "1" {
		// Hold the shard journal's flock without ever appending: a live
		// but wedged worker. Journal growth is the liveness signal, so
		// the coordinator must expire this lease and reassign.
		log, err := journal.Open(path, journal.SyncAlways)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer log.Close()
		time.Sleep(time.Hour)
		os.Exit(0)
	}
	opt := WorkerOptions{
		Budget:             atoiEnv(envBudget),
		CheckpointEvery:    atoiEnv(envCkptEvery),
		CrashAfterBranches: int64(atoiEnv(envCrashAfter)),
	}
	if err := RunShard(context.Background(), path, opt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// A worker that is slow to exit after its result is durable, as a
	// race-built one is.
	if d, err := time.ParseDuration(os.Getenv(envExitDelay)); err == nil {
		time.Sleep(d)
	}
	os.Exit(0)
}

// launchPlan builds worker commands for the coordinator, with optional
// fault injection decided per spec (so e.g. only first attempts crash),
// and records every spec it launched.
type launchPlan struct {
	mu         sync.Mutex
	crashAfter func(WorkerSpec) int64
	wedge      func(WorkerSpec) bool
	exitDelay  time.Duration
	specs      []WorkerSpec
}

func (p *launchPlan) launch(spec WorkerSpec) *exec.Cmd {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.specs = append(p.specs, spec)
	cmd := exec.Command(os.Args[0], "-test.run", "^TestPoolWorkerHelper$")
	// A race-built helper sleeps 1s at exit unless told otherwise, and
	// the coordinator collects a shard when its worker exits.
	env := append(os.Environ(),
		"GORACE=atexit_sleep_ms=0",
		envWorker+"=1",
		envJournal+"="+spec.JournalPath,
		fmt.Sprintf("%s=%d", envBudget, spec.Budget),
		fmt.Sprintf("%s=%d", envCkptEvery, spec.CheckpointEvery),
	)
	if p.crashAfter != nil {
		if n := p.crashAfter(spec); n > 0 {
			env = append(env, fmt.Sprintf("%s=%d", envCrashAfter, n))
		}
	}
	if p.wedge != nil && p.wedge(spec) {
		env = append(env, envWedge+"=1")
	}
	if p.exitDelay > 0 {
		env = append(env, envExitDelay+"="+p.exitDelay.String())
	}
	cmd.Env = env
	return cmd
}

func oracleVerdict(t *testing.T, inst feasibility.Instance) feasibility.Result {
	t.Helper()
	s := inst.Solver()
	s.Workers = 1
	res, err := s.Solve()
	if err != nil {
		t.Fatalf("oracle solve (%d,%d): %v", inst.N, inst.K, err)
	}
	return res
}

// checkAgainstOracle asserts the sharded drain settled the same
// question the same way: verdict, tier, and survivor existence.
// Counters like TablesExplored are deliberately NOT compared — shard
// boundaries and reassignment change how often tables are re-examined
// without changing what was decided.
func checkAgainstOracle(t *testing.T, got, want feasibility.Result) {
	t.Helper()
	if got.Impossible != want.Impossible {
		t.Fatalf("verdict mismatch: pool impossible=%v, oracle impossible=%v", got.Impossible, want.Impossible)
	}
	if got.Tier != want.Tier {
		t.Fatalf("tier mismatch: pool settled at tier %d, oracle at tier %d", got.Tier, want.Tier)
	}
	if (got.SurvivorTable != nil) != (want.SurvivorTable != nil) {
		t.Fatalf("survivor mismatch: pool survivor=%v, oracle survivor=%v",
			got.SurvivorTable != nil, want.SurvivorTable != nil)
	}
	if got.ExpansionUnits <= 0 {
		t.Fatalf("pool result reports no work: %+v", got)
	}
}

func testConfig(dir string, inst feasibility.Instance, plan *launchPlan) Config {
	return Config{
		Dir:             dir,
		Instance:        inst,
		Shards:          3,
		Lease:           10 * time.Second,
		CheckpointEvery: 4,
		BackoffBase:     time.Millisecond,
		BackoffCap:      20 * time.Millisecond,
		MaxAttempts:     6,
		Launch:          plan.launch,
	}
}

func TestPoolMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drain pool in -short mode")
	}
	// (7,3) and (8,5) fan out to real worker subprocesses; (7,4)'s
	// frontier never reaches the shard width, covering the drain that
	// finishes entirely inside the coordinator's expansion phase. At 8
	// shards, (7,3) with 2-step cycles survives tier 0 inside the
	// expansion, which escalates and reaches the tier-2 verdict there.
	for _, tc := range []struct {
		name   string
		inst   feasibility.Instance
		shards int
	}{
		{"n7k3", feasibility.Instance{N: 7, K: 3}, 3},
		{"n7k4", feasibility.Instance{N: 7, K: 4}, 3},
		{"n8k5", feasibility.Instance{N: 8, K: 5}, 3},
		{"n7k3cycle2shards8", feasibility.Instance{N: 7, K: 3, MaxCycleLen: 2}, 8},
	} {
		inst := tc.inst
		t.Run(tc.name, func(t *testing.T) {
			want := oracleVerdict(t, inst)
			plan := &launchPlan{}
			cfg := testConfig(t.TempDir(), inst, plan)
			cfg.Shards = tc.shards
			got, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("pool run: %v", err)
			}
			checkAgainstOracle(t, got, want)
			// A second Run over the same directory must replay the
			// journaled verdict without doing any work.
			again, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("idempotent rerun: %v", err)
			}
			if again.Impossible != got.Impossible || again.Tier != got.Tier {
				t.Fatalf("replayed verdict differs: first %+v, replay %+v", got, again)
			}
		})
	}
}

// TestPoolRandomWorkerCrashes kill -9s the first attempt of every shard
// at a pseudo-random branch count. Reassigned attempts resume from the
// crashed attempt's journaled checkpoints; the verdict must match the
// uninterrupted single-process run.
func TestPoolRandomWorkerCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drain pool in -short mode")
	}
	inst := feasibility.Instance{N: 9, K: 4}
	want := oracleVerdict(t, inst)
	seed := time.Now().UnixNano()
	t.Logf("crash schedule seed: %d", seed)
	next := seed
	plan := &launchPlan{}
	plan.crashAfter = func(spec WorkerSpec) int64 {
		if spec.Attempt > 1 {
			return 0 // retries run clean, guaranteeing forward progress
		}
		next = next*6364136223846793005 + 1442695040888963407 // LCG; launch() holds plan.mu
		return 1 + (next>>33)%23
	}
	cfg := testConfig(t.TempDir(), inst, plan)
	cfg.WorkerBudget = 120 // several generations, so crashes hit many phases
	got, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("pool run with crashing workers: %v", err)
	}
	checkAgainstOracle(t, got, want)
}

// TestPoolCollectsOnExit crashes the first attempt of every shard
// under an hour-long lease, so no lease deadline comes due during the
// run and liveness checks find nothing to collect: worker exits alone
// must drive result collection and reassignment.
func TestPoolCollectsOnExit(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drain pool in -short mode")
	}
	inst := feasibility.Instance{N: 8, K: 5}
	want := oracleVerdict(t, inst)
	plan := &launchPlan{}
	plan.crashAfter = func(spec WorkerSpec) int64 {
		if spec.Attempt == 1 {
			return 5
		}
		return 0
	}
	cfg := testConfig(t.TempDir(), inst, plan)
	cfg.Lease = time.Hour
	lost := 0 // Logf runs on Run's goroutine
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(format, "worker lost") {
			lost++
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := Run(ctx, cfg)
	if err != nil {
		t.Fatalf("pool run with hour-long leases: %v", err)
	}
	checkAgainstOracle(t, got, want)
	if lost == 0 {
		t.Fatal("no first attempt crashed, so no reassignment was exercised")
	}
}

// TestPoolKeepsCheckpointEveryZero: CheckpointEvery 0 reaches every
// worker as 0 (no periodic checkpoints), not as some default cadence.
func TestPoolKeepsCheckpointEveryZero(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drain pool in -short mode")
	}
	inst := feasibility.Instance{N: 7, K: 3}
	want := oracleVerdict(t, inst)
	plan := &launchPlan{}
	cfg := testConfig(t.TempDir(), inst, plan)
	cfg.CheckpointEvery = 0
	got, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("pool run without periodic checkpoints: %v", err)
	}
	checkAgainstOracle(t, got, want)
	if len(plan.specs) == 0 {
		t.Fatal("no worker was launched")
	}
	for _, spec := range plan.specs {
		if spec.CheckpointEvery != 0 {
			t.Fatalf("shard %d attempt %d launched with CheckpointEvery %d, want 0", spec.Shard, spec.Attempt, spec.CheckpointEvery)
		}
	}
}

// TestRunShardBeatsAtLeaseHeartbeat runs a worker the way cmd/drain
// does, with zero WorkerOptions, on a shard the coordinator seeded
// under a 200ms lease. Without periodic checkpoints its heartbeats are
// the only journal growth, so they must come every 50ms (Lease/4), well
// inside the lease, for about 12 beats in 600ms.
func TestRunShardBeatsAtLeaseHeartbeat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-g001-s000.journal")
	c := &coordinator{cfg: Config{Lease: 200 * time.Millisecond}.withDefaults()}
	root, err := feasibility.RootCheckpoint(feasibility.NewSolver(19, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.seedShardJournal(path, root, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	if err := RunShard(ctx, path, WorkerOptions{}); err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	log, err := journal.Open(path, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	beats := 0
	if err := log.ForEach(func(p []byte) error {
		if p[0] == recShardBeat {
			beats++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if beats < 4 {
		t.Fatalf("%d heartbeats in 600ms under a 200ms lease, want at least 4", beats)
	}
}

// TestReseedUpdatesHeartbeat: a coordinator recovering a shard journal
// under another lease appends a meta record with its own heartbeat,
// which workers then read, and reseeding under the same lease appends
// nothing.
func TestReseedUpdatesHeartbeat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-g001-s000.journal")
	root, err := feasibility.RootCheckpoint(feasibility.NewSolver(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, lease := range []time.Duration{time.Minute, 200 * time.Millisecond, 200 * time.Millisecond} {
		c := &coordinator{cfg: Config{Lease: lease}.withDefaults()}
		if err := c.seedShardJournal(path, root, 0); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := journal.Scan(buf)
	var beats []time.Duration
	for _, p := range recs {
		if p[0] == recShardMeta {
			_, _, hb, err := decShardMeta(p)
			if err != nil {
				t.Fatal(err)
			}
			beats = append(beats, hb)
		}
	}
	if len(beats) != 2 || beats[0] != time.Second || beats[1] != 50*time.Millisecond {
		t.Fatalf("meta record heartbeats %v, want [1s 50ms]", beats)
	}
}

// TestTwoFieldShardMetaBeatsEverySecond: an older coordinator's meta
// record carries no heartbeat, and its workers beat every second.
func TestTwoFieldShardMetaBeatsEverySecond(t *testing.T) {
	gen, shard, hb, err := decShardMeta(encHeader(recShardMeta, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 || shard != 2 || hb != time.Second {
		t.Fatalf("decShardMeta = gen %d, shard %d, heartbeat %v; want 3, 2, 1s", gen, shard, hb)
	}
}

// TestRecoverSkipsPoolHeartbeats: an interrupted older coordinator's
// pool journal can hold 'H' records; recovery must replay past them.
func TestRecoverSkipsPoolHeartbeats(t *testing.T) {
	root, err := feasibility.RootCheckpoint(feasibility.NewSolver(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := root.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	plog, err := journal.Open(filepath.Join(t.TempDir(), "pool.journal"), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	for _, rec := range [][]byte{
		encPartition(1, 2, raw),
		encLease(1, 0, 1, time.Now().UnixNano()),
		encHeader(recHeartbeat, 1, 0, 4096),
	} {
		if err := plog.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	c := &coordinator{cfg: Config{}.withDefaults(), plog: plog}
	verdict, err := c.recover()
	if err != nil {
		t.Fatalf("recover over a pool journal with an 'H' record: %v", err)
	}
	if verdict != nil || c.gen != 1 || c.shards != 2 || c.attempts[0] != 1 {
		t.Fatalf("recovered verdict %v, generation %d, %d shards, attempts %v; want none, 1, 2, shard 0 at 1",
			verdict, c.gen, c.shards, c.attempts)
	}
}

// TestNextWakeWhilePoolFull: with MaxProcs workers running, a pending
// shard cannot launch, so its backoff expiry (or the zero time of a
// shard that never failed) must not wake the coordinator; waking for it
// would spin until a slot frees.
func TestNextWakeWhilePoolFull(t *testing.T) {
	now := time.Now()
	check, deadline := now.Add(time.Second), now.Add(2*time.Second)
	g := &generation{
		c:            &coordinator{cfg: Config{MaxProcs: 1}},
		pending:      map[int]bool{1: true, 2: true},
		running:      map[int]*worker{0: {shard: 0, deadline: deadline}},
		backoffUntil: map[int]time.Time{2: now.Add(-time.Second)},
	}
	if got := g.nextWake(check); !got.Equal(check) {
		t.Fatalf("pool full: nextWake = %v from now, want the liveness check at %v", got.Sub(now), check.Sub(now))
	}
	g.c.cfg.MaxProcs = 2
	g.backoffUntil = map[int]time.Time{1: now.Add(500 * time.Millisecond), 2: now.Add(700 * time.Millisecond)}
	if got, want := g.nextWake(check), g.backoffUntil[1]; !got.Equal(want) {
		t.Fatalf("room to launch: nextWake = %v from now, want the first backoff expiry at %v", got.Sub(now), want.Sub(now))
	}
}

// TestRunShardJournalsEveryCheckpoint checks the worker's write-behind
// checkpoints against an in-process run of the same shard: the shard
// journal holds every periodic checkpoint, byte for byte and in order
// (so TablesExplored never decreases), and exactly one result record,
// last.
func TestRunShardJournalsEveryCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-g001-s000.journal")
	seedShardJournal(t, path, 8, 5, time.Hour)

	root, err := feasibility.RootCheckpoint(feasibility.NewSolver(8, 5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := root.NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 1
	s.StopAfterTier = true
	s.CheckpointEvery = 2
	var want [][]byte
	s.OnCheckpoint = func(cp *feasibility.Checkpoint) error {
		raw, err := cp.MarshalBinary()
		want = append(want, raw)
		return err
	}
	if _, _, err := s.Resume(context.Background(), root); err != nil {
		t.Fatalf("in-process shard run: %v", err)
	}
	if len(want) < 3 {
		t.Fatalf("only %d periodic checkpoints; the shard is too small to test ordering", len(want))
	}

	if err := RunShard(context.Background(), path, WorkerOptions{CheckpointEvery: 2}); err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	log, err := journal.Open(path, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var tags []byte
	var ckpts [][]byte
	if err := log.ForEach(func(p []byte) error {
		tags = append(tags, p[0])
		if p[0] == recShardCkpt {
			ckpts = append(ckpts, append([]byte(nil), p[1:]...))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(tags, []byte{recShardDone}); n != 1 || tags[len(tags)-1] != recShardDone {
		t.Fatalf("record tags %q: want exactly one result record, last", tags)
	}
	periodic := ckpts[1:] // the first is the seeded root
	if len(periodic) != len(want) {
		t.Fatalf("journal holds %d periodic checkpoints, the in-process run took %d", len(periodic), len(want))
	}
	prev := -1
	for i, raw := range periodic {
		if !bytes.Equal(raw, want[i]) {
			t.Fatalf("periodic checkpoint %d differs from the in-process run's", i)
		}
		ck, err := feasibility.UnmarshalCheckpoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		if tables := ck.Stats().TablesExplored; tables < prev {
			t.Fatalf("checkpoint %d explored %d tables, after one with %d", i, tables, prev)
		} else {
			prev = tables
		}
	}
}

// TestPoolLeaseExpiryReassignment wedges shard 0's first worker: the
// process stays alive and holds the journal flock but never appends.
// The coordinator must expire the lease, kill the holder, and complete
// the shard on a fresh attempt — no shard is silently lost.
func TestPoolLeaseExpiryReassignment(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drain pool in -short mode")
	}
	inst := feasibility.Instance{N: 7, K: 3}
	want := oracleVerdict(t, inst)
	plan := &launchPlan{}
	plan.wedge = func(spec WorkerSpec) bool { return spec.Shard == 0 && spec.Attempt == 1 && spec.Gen == 1 }
	cfg := testConfig(t.TempDir(), inst, plan)
	cfg.Lease = 1200 * time.Millisecond
	var mu sync.Mutex
	var lines []string
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	got, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("pool run with wedged worker: %v", err)
	}
	checkAgainstOracle(t, got, want)
	mu.Lock()
	defer mu.Unlock()
	expired := false
	for _, l := range lines {
		if strings.Contains(l, "lease expired") {
			expired = true
		}
	}
	if !expired {
		t.Fatalf("wedged worker's lease never expired; log:\n%s", strings.Join(lines, "\n"))
	}
}

// TestPoolSlowExitIsNotExpired: every worker sleeps for longer than its
// lease between journaling its result and exiting. A lease that runs out
// on a durable result collects the shard as done, without a "lease
// expired" line or a kill.
func TestPoolSlowExitIsNotExpired(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drain pool in -short mode")
	}
	inst := feasibility.Instance{N: 7, K: 3}
	want := oracleVerdict(t, inst)
	plan := &launchPlan{exitDelay: 1500 * time.Millisecond}
	cfg := testConfig(t.TempDir(), inst, plan)
	cfg.Lease = 300 * time.Millisecond
	var mu sync.Mutex
	var lines []string
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	got, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("pool run with slow-exiting workers: %v", err)
	}
	checkAgainstOracle(t, got, want)
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.Contains(l, "lease expired") || strings.Contains(l, "worker lost") {
			t.Fatalf("a worker with a durable result was expired; log:\n%s", strings.Join(lines, "\n"))
		}
	}
}

// TestCleanupKillsNoPidZeroHelper is the subprocess body of
// TestCleanupKillsNoPidZero, not a test: it holds a shard's lock
// sidecar without a pid in it, as a worker does between taking the
// flock and writing its pid, and runs cleanupGeneration over it.
func TestCleanupKillsNoPidZeroHelper(t *testing.T) {
	dir := os.Getenv(envNoPidDir)
	if dir == "" {
		t.Skip("subprocess helper")
	}
	lock, err := os.Create(shardJournalPath(dir, 1, 0) + ".lock")
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Close()
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX); err != nil {
		t.Fatal(err)
	}
	if pid, locked := journal.LockHolder(shardJournalPath(dir, 1, 0)); !locked || pid != 0 {
		t.Fatalf("LockHolder = %d, %v; want 0, true", pid, locked)
	}
	(&coordinator{cfg: Config{Dir: dir}, gen: 1}).cleanupGeneration(1)
	fmt.Println("cleanup survived")
}

// TestCleanupKillsNoPidZero: a locked sidecar that names no pid makes
// cleanupGeneration send no signal; kill(2) with pid 0 would kill the
// caller's process group. The helper runs in a process group of its
// own, so a regression kills only the helper.
func TestCleanupKillsNoPidZero(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCleanupKillsNoPidZeroHelper$", "-test.v")
	cmd.Env = append(os.Environ(), envNoPidDir+"="+t.TempDir())
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("cleanup survived")) {
		t.Fatalf("helper: %v\n%s", err, out)
	}
}

// TestPoolSuspendResume stops the drain resumable after one generation
// (MaxGenerations) and finishes it with a second Run over the same
// journal directory.
func TestPoolSuspendResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drain pool in -short mode")
	}
	inst := feasibility.Instance{N: 7, K: 3}
	want := oracleVerdict(t, inst)
	plan := &launchPlan{}
	cfg := testConfig(t.TempDir(), inst, plan)
	cfg.WorkerBudget = 150
	cfg.MaxGenerations = 1
	if _, err := Run(context.Background(), cfg); !errors.Is(err, ErrSuspended) {
		t.Fatalf("one-generation run: want ErrSuspended, got %v", err)
	}
	cfg.MaxGenerations = 0
	got, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	checkAgainstOracle(t, got, want)
}

// TestPoolCoordinatorHelper is the coordinator subprocess body for the
// kill -9 recovery test, not a test.
func TestPoolCoordinatorHelper(t *testing.T) {
	if os.Getenv(envCoord) != "1" {
		t.Skip("subprocess helper")
	}
	plan := &launchPlan{}
	cfg := testConfig(os.Getenv(envDir), feasibility.Instance{N: 10, K: 7}, plan)
	cfg.WorkerBudget = atoiEnv(envBudget)
	cfg.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, "coord: "+format+"\n", args...) }
	res, err := Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("impossible=%v tier=%d\n", res.Impossible, res.Tier)
	os.Exit(0)
}

// TestPoolCoordinatorKillRecovery kill -9s a live coordinator mid-drain
// and resumes in-process over the same directory. The replacement must
// recover the generation from the pool journal, adopt or reassign the
// orphaned workers, and land on the single-process verdict.
func TestPoolCoordinatorKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drain pool in -short mode")
	}
	inst := feasibility.Instance{N: 10, K: 7}
	want := oracleVerdict(t, inst)
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run", "^TestPoolCoordinatorHelper$")
	cmd.Env = append(os.Environ(), "GORACE=atexit_sleep_ms=0", envCoord+"=1", envDir+"="+dir, fmt.Sprintf("%s=%d", envBudget, 60))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting coordinator subprocess: %v", err)
	}

	// Wait for real drain activity — at least one seeded shard journal —
	// then kill the coordinator without any warning.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("coordinator subprocess never seeded a shard journal")
		}
		matches, _ := filepath.Glob(filepath.Join(dir, "shard-g*.journal"))
		if len(matches) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let workers spawn so orphans exist
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9 coordinator: %v", err)
	}
	cmd.Wait()

	// The dead coordinator's flock is released by the kernel; wait for
	// the pool journal to become claimable.
	for {
		if _, locked := journal.LockHolder(poolJournalPath(dir)); !locked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool journal still locked after coordinator death")
		}
		time.Sleep(10 * time.Millisecond)
	}

	plan := &launchPlan{}
	cfg := testConfig(dir, inst, plan)
	cfg.WorkerBudget = 60
	// A drain whose legs stop making progress never finishes; the
	// deadline turns that into a failure instead of a test timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := Run(ctx, cfg)
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	checkAgainstOracle(t, got, want)
}
