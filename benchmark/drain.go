package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ringrobots/internal/drainpool"
)

// drainTarget is the instance a drain workload runs, with its expected
// verdict (see drainQueries).
func drainTarget(b *bench, pool bool) verdict {
	switch {
	case b.opts.smoke:
		return b.exp.Drains[2]
	case pool:
		return b.exp.Drains[1]
	}
	return b.exp.Drains[0]
}

func checkDrainBin(path string) error {
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("drain binary: %w (build it with: go build -o %s ./cmd/drain)", err, path)
	}
	return nil
}

// drainDir is the per-pass journal directory both drain workloads use.
type drainDir struct {
	b   *bench
	dir string
	cpu time.Duration // child-process CPU time of traced drains
}

func (d *drainDir) setup(int) error {
	dir, err := os.MkdirTemp(d.b.dir, "drain-")
	d.dir = dir
	return err
}

func (d *drainDir) teardown() error {
	if d.dir == "" {
		return nil
	}
	err := os.RemoveAll(d.dir)
	d.dir = ""
	return err
}

// drainSingle runs the cmd/drain binary with default flags (one solver
// worker, a fsync'd checkpoint every 64 branches, compaction above 64
// records) to its verdict.
type drainSingle struct {
	drainDir
	want verdict
}

func newDrainSingle(b *bench) (runner, error) {
	if err := checkDrainBin(b.opts.drainBin); err != nil {
		return nil, err
	}
	return &drainSingle{drainDir: drainDir{b: b}, want: drainTarget(b, false)}, nil
}

func (d *drainSingle) work(int) error {
	cmd := exec.Command(d.b.opts.drainBin,
		"-n", strconv.Itoa(d.want.N), "-k", strconv.Itoa(d.want.K),
		"-journal", filepath.Join(d.dir, "drain.journal"))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	start := time.Now()
	err := cmd.Run()
	end := time.Now()
	if err != nil {
		d.b.fail(false, "drain %s: %v: %s", d.want.id(), err, strings.TrimSpace(out.String()))
		return nil
	}
	if d.b.tr != nil {
		d.b.tr.record(0, 0, "drain", "single", start, end, 0)
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.cpu += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	if err := checkDrainOutput(out.String(), d.want); err != nil {
		d.b.fail(true, "%v", err)
		return nil
	}
	d.b.op(end.Sub(start))
	return nil
}

// checkDrainOutput finds cmd/drain's verdict line and compares it.
func checkDrainOutput(out string, want verdict) error {
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "verdict: ") {
			continue
		}
		fields := map[string]string{}
		for _, f := range strings.Fields(strings.TrimPrefix(line, "verdict: ")) {
			if k, v, ok := strings.Cut(f, "="); ok {
				fields[k] = v
			}
		}
		wantImp := strconv.FormatBool(want.Impossible)
		if fields["impossible"] != wantImp || fields["tier"] != strconv.Itoa(want.Tier) {
			return fmt.Errorf("drain %s: %q, expected impossible=%s tier=%d", want.id(), line, wantImp, want.Tier)
		}
		return nil
	}
	return fmt.Errorf("drain %s printed no verdict: %q", want.id(), out)
}

// attribute replays the drain in process: its solver, checkpoint and
// journal time; what remains of the process's wall time (exec, runtime
// start, journal open, exit) stays unattributed.
func (d *drainSingle) attribute(a *attribution) error {
	rp, err := replay([]query{d.want.query}, d.b.dir, 5)
	if err != nil {
		return err
	}
	rp.attribute(a)
	a.counts["drain.child_cpu_pct"] = pct(d.cpu, a.e2e)
	return nil
}

// drainPool runs drainpool.Run in this process over 2 shards, launching
// cmd/drain worker processes with the arguments `drain -shards 2
// -pool-procs 2` gives them.
type drainPool struct {
	drainDir
	want verdict

	// Per drain, written by the coordinator's callbacks.
	mu          sync.Mutex
	cmds        []*exec.Cmd
	launched    map[int]time.Time // shard → launch of its current attempt
	spans       [][2]time.Time    // worker attempts, launch to result
	generations int64

	// Totals over traced drains.
	tGenerations, tAttempts, tTables int64
	workerWall                       time.Duration
}

func newDrainPool(b *bench) (runner, error) {
	if err := checkDrainBin(b.opts.drainBin); err != nil {
		return nil, err
	}
	return &drainPool{drainDir: drainDir{b: b}, want: drainTarget(b, true)}, nil
}

func (d *drainPool) launch(spec drainpool.WorkerSpec) *exec.Cmd {
	cmd := exec.Command(d.b.opts.drainBin, "-worker", "-journal", spec.JournalPath,
		"-budget", strconv.Itoa(spec.Budget),
		"-checkpoint-every", strconv.Itoa(spec.CheckpointEvery),
		"-workers", strconv.Itoa(spec.SolverWorkers))
	cmd.Stderr = os.Stderr
	d.mu.Lock()
	d.launched[spec.Shard] = time.Now()
	d.cmds = append(d.cmds, cmd)
	d.mu.Unlock()
	return cmd
}

// logf counts generations and closes a worker's span when the
// coordinator collects its shard's result.
func (d *drainPool) logf(format string, args ...any) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case strings.HasPrefix(format, "generation %d: tier"):
		d.generations++
	case strings.HasPrefix(format, "generation %d: shard %d done") && len(args) > 1:
		if shard, ok := args[1].(int); ok {
			d.spans = append(d.spans, [2]time.Time{d.launched[shard], now})
		}
	}
}

func (d *drainPool) work(int) error {
	d.mu.Lock()
	d.cmds, d.spans, d.generations = nil, nil, 0
	d.launched = map[int]time.Time{}
	d.mu.Unlock()
	// cmd/drain's coordinator defaults: one solver goroutine per worker,
	// a checkpoint every 64 branches, no per-leg budget.
	cfg := drainpool.Config{
		Dir:             filepath.Join(d.dir, "pool"),
		Instance:        d.want.instance(),
		Shards:          2,
		MaxProcs:        clients,
		CheckpointEvery: checkpointEvery,
		SolverWorkers:   1,
		Launch:          d.launch,
		Logf:            d.logf,
	}
	cpu := childrenCPU()
	start := time.Now()
	res, err := drainpool.Run(context.Background(), cfg)
	end := time.Now()
	// The coordinator may return while a worker that already journaled
	// its result is still exiting; wait for every worker to be reaped.
	if werr := d.waitWorkers(); werr != nil {
		return werr
	}
	if err != nil {
		d.b.fail(false, "pool drain %s: %v", d.want.id(), err)
		return nil
	}
	if d.b.tr != nil {
		d.cpu += childrenCPU() - cpu
		d.b.tr.record(0, 0, "drainpool", "run", start, end, 0)
		d.mu.Lock()
		for _, sp := range d.spans {
			d.b.tr.record(0, 0, "workers", "shard", sp[0], sp[1], 0)
		}
		d.workerWall += covered(d.spans)
		d.tGenerations += d.generations
		d.tAttempts += int64(len(d.cmds))
		d.tTables += int64(res.TablesExplored)
		d.mu.Unlock()
	}
	if res.Impossible != d.want.Impossible || res.Tier != d.want.Tier {
		d.b.fail(true, "pool drain %s: impossible=%v tier=%d, expected impossible=%v tier=%d",
			d.want.id(), res.Impossible, res.Tier, d.want.Impossible, d.want.Tier)
		return nil
	}
	d.b.op(end.Sub(start))
	return nil
}

// waitWorkers polls until every launched worker process is gone (the
// coordinator's own goroutines reap them).
func (d *drainPool) waitWorkers() error {
	d.mu.Lock()
	cmds := append([]*exec.Cmd(nil), d.cmds...)
	d.mu.Unlock()
	deadline := time.Now().Add(30 * time.Second)
	for _, cmd := range cmds {
		if cmd.Process == nil {
			continue
		}
		for syscall.Kill(cmd.Process.Pid, 0) == nil {
			if time.Now().After(deadline) {
				return errors.New("drain-pool: a worker process outlived its drain by 30s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// covered is the wall time during which at least one span is open.
func covered(spans [][2]time.Time) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	var total time.Duration
	var end time.Time
	for _, sp := range spans {
		if sp[0].After(end) {
			end = sp[0]
		}
		if sp[1].After(end) {
			total += sp[1].Sub(end)
			end = sp[1]
		}
	}
	return total
}

// childrenCPU is the user+system time of every reaped child process.
func childrenCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// attribute splits each pool drain into the wall its worker processes
// cover and the coordinator's own time: frontier expansion, partition,
// journaling, merge, and polling for shard results.
func (d *drainPool) attribute(a *attribution) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	a.self["workers"] = d.workerWall
	a.self["drainpool"] = a.e2e - d.workerWall
	ops := a.ops()
	a.counts["drainpool.generations_per_op"] = float64(d.tGenerations) / ops
	a.counts["drainpool.shard_attempts_per_op"] = float64(d.tAttempts) / ops
	a.counts["drainpool.tables_per_op"] = float64(d.tTables) / ops
	a.counts["drain.child_cpu_pct"] = pct(d.cpu, a.e2e)
	return nil
}
