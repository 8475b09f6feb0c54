// Command drain runs an impossibility solve as a crash-safe,
// resumable "drain": the solver's periodic checkpoints are appended to
// a verdict store (internal/verdictstore), SIGINT/SIGTERM suspend the
// search cleanly, budget exhaustion suspends it with the budget spent,
// and re-running the same command resumes from the instance's last
// checkpoint — surviving kill -9 between appends. The verdict, once
// reached, is journaled too, so a finished drain is idempotent. The
// store is keyed by instance, so one journal can hold drains of several
// instances, and `serve -store` serves a drained journal as-is.
//
// Periodic checkpoints are journaled behind the search (Store.Drain): a
// checkpoint is encoded while the solver is quiesced and written while
// it runs on. Every periodic checkpoint except the newest is durable;
// the verdict and a suspension checkpoint are durable before the
// command exits; and a storage failure stops the solve at the next
// checkpoint barrier.
//
// Usage:
//
//	go run ./cmd/drain -n 9 -k 5 -journal drain95.log -budget 5000000
//	# ...interrupted (signal, crash, budget); same command resumes:
//	go run ./cmd/drain -n 9 -k 5 -journal drain95.log -budget 5000000
//
// With -workers 1 (the default) a chain of suspended runs is
// bit-deterministic: it reaches the same verdict, tier and
// TablesExplored as one uninterrupted run.
//
// Distributed drains (-shards / -worker, internal/drainpool):
//
//	# coordinator: partition the frontier into 4 leased subtree shards,
//	# run worker subprocesses, merge, repeat until the verdict
//	go run ./cmd/drain -n 9 -k 5 -shards 4 -journal-dir drain95/
//
//	# a worker for one shard journal (the coordinator launches these
//	# itself; run them by hand on other machines sharing the directory)
//	go run ./cmd/drain -worker -journal drain95/shard-g001-s002.journal
//
// The coordinator journals partitions, leases and shard completions in
// <dir>/pool.journal: kill -9 it and the same command recovers the
// drain, adopting workers that are still alive. The coordinator
// collects a shard when its worker exits; crashed or wedged workers
// lose their lease and are reassigned with capped backoff.
//
// Offline verification and repair (-fsck):
//
//	# read-only check: parse the journal, report damaged spans and the
//	# records a resynchronizing scan recovers beyond them (exit 4 if damaged)
//	go run ./cmd/drain -fsck -journal drain95.log
//
//	# rewrite the journal to the recovered records; damaged bytes go to
//	# drain95.log.quarantine byte-exact before anything is discarded
//	go run ./cmd/drain -fsck -repair -journal drain95.log
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ringrobots/internal/drainpool"
	"ringrobots/internal/faultfs"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
	"ringrobots/internal/verdictstore"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "drain: "+format+"\n", args...)
	os.Exit(1)
}

func parseTiers(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-tiers %q: %q is not an integer", s, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// runWorker executes one leased shard: resume the shard journal's
// latest checkpoint, journal the terminal shard result. Everything
// identifying the shard lives in the journal, so a worker on another
// machine needs only the shared journal directory.
func runWorker(path string, budget, every, workers int, crashAfter int64) {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	err := drainpool.RunShard(ctx, path, drainpool.WorkerOptions{
		Budget:             budget,
		CheckpointEvery:    every,
		SolverWorkers:      workers,
		CrashAfterBranches: crashAfter,
		Logf:               func(f string, a ...any) { fmt.Printf("worker: "+f+"\n", a...) },
	})
	if err != nil {
		fatalf("%v", err)
	}
}

// runFsck verifies a journal offline (any journal: a drain log, a
// shard journal, a pool journal, the serve verdict store). Without
// -repair it is read-only and lock-free — safe against a live writer,
// exiting 4 when damage is found. With -repair it takes the journal's
// writer lock, quarantines every damaged span byte-exact to the
// .quarantine sidecar, and atomically rewrites the journal to exactly
// the recovered records.
func runFsck(path string, repair bool) {
	rep, err := journal.Fsck(faultfs.OS{}, path)
	if err != nil {
		fatalf("fsck %s: %v", path, err)
	}
	fmt.Printf("fsck %s: %d bytes, %d records recoverable (%d in the valid prefix), %d damaged spans\n",
		rep.Path, rep.SizeBytes, rep.Records, rep.PrefixValid, len(rep.Spans))
	for _, sp := range rep.Spans {
		fmt.Printf("  damaged span [%d, %d): %d bytes\n", sp.Off, sp.End, sp.End-sp.Off)
	}
	if rep.Clean() {
		fmt.Println("clean")
		return
	}
	if !repair {
		fmt.Printf("damaged: %d recoverable records lie beyond the valid prefix; rerun with -repair to rewrite the journal and quarantine the damage\n", rep.Lost())
		os.Exit(4)
	}
	rr, err := journal.Repair(faultfs.OS{}, path)
	if err != nil {
		if errors.Is(err, journal.ErrLocked) {
			fatalf("repair %s: %v (a live writer holds the journal; stop it first)", path, err)
		}
		fatalf("repair %s: %v", path, err)
	}
	fmt.Printf("repaired: kept %d records, quarantined %d spans (%d bytes) to %s\n",
		rr.RecordsKept, len(rr.SpansQuarantined), rr.BytesQuarantined, rr.QuarantinePath)
}

// runCoordinator drives a sharded drain, launching this same binary in
// -worker mode for each shard lease.
func runCoordinator(inst feasibility.Instance, dir string, shards, poolProcs int, lease time.Duration, budget, every, workers, generations int, crashWorkerAfter int64) {
	exe, err := os.Executable()
	if err != nil {
		fatalf("locating own binary for worker launches: %v", err)
	}
	cfg := drainpool.Config{
		Dir:             dir,
		Instance:        inst,
		Shards:          shards,
		MaxProcs:        poolProcs,
		Lease:           lease,
		WorkerBudget:    budget,
		CheckpointEvery: every,
		SolverWorkers:   workers,
		MaxGenerations:  generations,
		Launch: func(spec drainpool.WorkerSpec) *exec.Cmd {
			args := []string{
				"-worker", "-journal", spec.JournalPath,
				"-budget", strconv.Itoa(spec.Budget),
				"-checkpoint-every", strconv.Itoa(spec.CheckpointEvery),
				"-workers", strconv.Itoa(spec.SolverWorkers),
			}
			if crashWorkerAfter > 0 && spec.Attempt == 1 {
				args = append(args, "-crash-after-branches", strconv.FormatInt(crashWorkerAfter, 10))
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			return cmd
		},
		Logf: func(f string, a ...any) { fmt.Printf("pool: "+f+"\n", a...) },
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	res, err := drainpool.Run(ctx, cfg)
	switch {
	case err == nil:
		fmt.Printf("verdict: n=%d k=%d impossible=%v tier=%d tables=%d units=%d survivor=%v\n",
			inst.N, inst.K, res.Impossible, res.Tier, res.TablesExplored, res.ExpansionUnits, res.SurvivorTable != nil)
	case errors.Is(err, drainpool.ErrSuspended):
		fmt.Printf("suspended (%v); rerun the same command to continue\n", err)
		os.Exit(3)
	default:
		fatalf("%v", err)
	}
}

func printStats(prefix string, st feasibility.CheckpointStats) {
	fmt.Printf("%s: tier=%d (index %d) frontier=%d branches depth=[%d..%d] tables=%d units=%d credits=%d survivor=%v\n",
		prefix, st.Tier, st.TierIndex, st.FrontierNodes, st.FrontierDepthMin, st.FrontierDepthMax,
		st.TablesExplored, st.ExpansionUnits, st.Credits, st.HasPriorSurvivor)
}

func main() {
	n := flag.Int("n", 9, "ring size")
	k := flag.Int("k", 5, "robot count")
	journalPath := flag.String("journal", "", "verdict-store journal path (required): checkpoints and the verdict are appended here")
	budget := flag.Int("budget", 0, "per-tier expansion budget for this run (0 = solver default); exhaustion suspends, resuming grants a fresh allowance")
	workers := flag.Int("workers", 1, "worker pool size (1 = bit-deterministic resume chain)")
	every := flag.Int("checkpoint-every", 64, "journal a checkpoint every this many processed branches (0 disables periodic checkpoints)")
	compactAbove := flag.Int("compact-above", 64, "compact the journal down to its live records once it holds more than this many and dead bytes exceed live ones (0 disables)")
	sync := flag.Bool("sync", true, "fsync the journal after every append (survives power loss, not just kill -9)")
	tiers := flag.String("tiers", "", "comma-separated pending-move tier ladder (default: solver's 0,2)")
	cycleCap := flag.Int("cycle-cap", 0, "max starvation-loop length (0 = solver default)")
	crashAfter := flag.Int64("crash-after-branches", 0, "TESTING: SIGKILL this process after that many processed branches")
	fsck := flag.Bool("fsck", false, "verify the journal offline (-journal) and report damage; exits 4 if damaged and not repaired")
	repair := flag.Bool("repair", false, "with -fsck: quarantine damaged spans to <journal>.quarantine and rewrite the journal to the recovered records")
	worker := flag.Bool("worker", false, "run as a drain-pool worker for one shard journal (-journal); shard identity comes from the journal")
	shards := flag.Int("shards", 0, "run as a drain-pool coordinator partitioning the frontier into this many leased shards (requires -journal-dir)")
	journalDir := flag.String("journal-dir", "", "coordinator journal directory (pool.journal plus per-shard journals); share it to distribute workers")
	lease := flag.Duration("lease", 30*time.Second, "coordinator: kill and reassign a shard's worker once its journal stops growing for this long; workers heartbeat, and the coordinator checks, every min(lease/4, 1s); an exited worker is collected at once")
	poolProcs := flag.Int("pool-procs", 0, "coordinator: max concurrently running workers (0 = one per shard)")
	generations := flag.Int("generations", 0, "coordinator: suspend resumable after this many partition/merge cycles (0 = run to the verdict)")
	crashWorkerAfter := flag.Int64("crash-worker-after", 0, "TESTING: coordinator launches each shard's first attempt with -crash-after-branches set to this")
	flag.Parse()

	// Fail fast with every flag problem at once, not first-error-wins.
	var errs []error
	switch {
	case *fsck:
		if *worker || *shards > 0 {
			errs = append(errs, errors.New("-fsck conflicts with -worker and -shards: it verifies one journal offline"))
		}
		if *journalPath == "" {
			errs = append(errs, errors.New("-fsck requires -journal (the journal to verify)"))
		}
	case *repair:
		errs = append(errs, errors.New("-repair requires -fsck"))
	case *worker && *shards > 0:
		errs = append(errs, errors.New("-worker and -shards are mutually exclusive"))
	case *worker:
		if *journalPath == "" {
			errs = append(errs, errors.New("-worker requires -journal (the shard journal seeded by a coordinator)"))
		}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "n", "k", "tiers", "cycle-cap":
				errs = append(errs, fmt.Errorf("-%s conflicts with -worker: the shard journal defines the instance", f.Name))
			}
		})
	case *shards > 0:
		if *journalDir == "" {
			errs = append(errs, errors.New("-shards requires -journal-dir"))
		}
		if *journalPath != "" {
			errs = append(errs, errors.New("-journal conflicts with -shards; the coordinator owns <journal-dir>/pool.journal"))
		}
	default:
		if *journalPath == "" {
			errs = append(errs, errors.New("-journal is required"))
		}
		if *journalDir != "" {
			errs = append(errs, errors.New("-journal-dir requires -shards (coordinator mode)"))
		}
	}
	tierList, terr := parseTiers(*tiers)
	if terr != nil {
		errs = append(errs, terr)
	}
	inst := feasibility.Instance{N: *n, K: *k, MaxCycleLen: *cycleCap, PendingTiers: tierList}
	if !*worker { // a worker's instance comes from the shard journal
		if err := inst.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if *budget < 0 {
		errs = append(errs, fmt.Errorf("-budget %d is negative", *budget))
	}
	if *workers < 1 {
		errs = append(errs, fmt.Errorf("-workers %d below minimum 1", *workers))
	}
	if *every < 0 {
		errs = append(errs, fmt.Errorf("-checkpoint-every %d is negative", *every))
	}
	if *compactAbove < 0 {
		errs = append(errs, fmt.Errorf("-compact-above %d is negative", *compactAbove))
	}
	if *crashAfter < 0 {
		errs = append(errs, fmt.Errorf("-crash-after-branches %d is negative", *crashAfter))
	}
	if *crashAfter > 0 && *every <= 0 {
		errs = append(errs, errors.New("-crash-after-branches requires -checkpoint-every > 0 (a crash without periodic checkpoints loses the whole drain)"))
	}
	if len(errs) > 0 {
		fatalf("invalid flags:\n%v", errors.Join(errs...))
	}

	if *fsck {
		runFsck(*journalPath, *repair)
		return
	}
	if *worker {
		runWorker(*journalPath, *budget, *every, *workers, *crashAfter)
		return
	}
	if *shards > 0 {
		runCoordinator(inst, *journalDir, *shards, *poolProcs, *lease, *budget, *every, *workers, *generations, *crashWorkerAfter)
		return
	}

	policy := journal.SyncNone
	if *sync {
		policy = journal.SyncAlways
	}
	st, err := verdictstore.OpenFS(faultfs.OS{}, *journalPath, policy)
	if err != nil {
		if errors.Is(err, journal.ErrCorrupt) {
			fatalf("open journal: %v\nrun `drain -fsck -journal %s` to inspect, `-fsck -repair` to quarantine the damage and recover the records beyond it", err, *journalPath)
		}
		fatalf("open journal: %v", err)
	}
	defer st.Close()

	// A finished drain is idempotent: rerunning just reprints it.
	key := inst.Key()
	if v, ok := st.Verdict(key); ok {
		fmt.Printf("drain already finished: %s\n", verdictLine(inst, v))
		return
	}

	s := inst.Solver()
	s.Workers = *workers
	if *budget > 0 {
		s.MaxExpansions = *budget
	}
	s.CheckpointEvery = *every
	if *crashAfter > 0 {
		s.BranchHook = func(done int64) {
			if done >= *crashAfter {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	res, cp, _, err := st.Drain(ctx, key, inst, s, *compactAbove, logger)
	switch {
	case err == nil:
		fmt.Printf("verdict: %s\n", verdictLine(inst, verdictstore.VerdictOf(res)))
	case cp != nil:
		printStats("suspended", cp.Stats())
		// Drain journaled the suspension checkpoint after the periodic ones.
		checkpoints, _ := st.Activity()
		saved := checkpoints - 1
		var be *feasibility.BudgetError
		switch {
		case errors.As(err, &be):
			fmt.Printf("budget exhausted at tier %d after %d units this run (%d periodic checkpoints); rerun to continue\n",
				be.Tier, be.Units, saved)
		default:
			fmt.Printf("suspended (%v) after %d periodic checkpoints; rerun to continue\n", err, saved)
		}
		os.Exit(3) // distinct exit: suspended, resumable
	default:
		fatalf("%v", err)
	}
}

func verdictLine(inst feasibility.Instance, v verdictstore.Verdict) string {
	return fmt.Sprintf("n=%d k=%d impossible=%v tier=%d tables=%d units=%d survivor=%v",
		inst.N, inst.K, v.Impossible, v.Tier, v.TablesExplored, v.ExpansionUnits, v.Survivor != nil)
}
