package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
)

// checkpointEvery is the checkpoint cadence of service.Default and of
// cmd/drain's default flags; drainCompactAbove is cmd/drain's
// -compact-above default.
const (
	checkpointEvery   = 64
	drainCompactAbove = 64
)

// The solver and checkpoint layers run inside the service and inside
// cmd/drain, where this package cannot time them. The traced run
// replays the workload's exact instances, budgets and cadence directly
// through Solver.SolveContext/Resume twice, one after the other (as the
// traced phase runs one solve at a time): once with the checkpoint
// cadence, timing MarshalBinary (and, for a drain, the SyncAlways
// journal append and compaction) in OnCheckpoint, and once without. The
// no-cadence calls are the solver's time; capturing checkpoints is what
// the cadence adds beyond encoding and journaling.

// replayRun is one pass over the queries.
type replayRun struct {
	ops         int           // solver calls: requests, legs or drains
	calls       time.Duration // time inside SolveContext/Resume
	encode      time.Duration // MarshalBinary inside OnCheckpoint
	suspend     time.Duration // MarshalBinary of suspension checkpoints
	decode      time.Duration // UnmarshalCheckpoint before a resumed leg
	journal     time.Duration // appends and compactions (drain replay)
	checkpoints int64
	ckptBytes   int64
	res         feasibility.Result // summed final counters
}

// replayStats combines the cadence and no-cadence passes.
type replayStats struct {
	plain, timed replayRun
}

// replay re-drives queries through the solver. Queries with a budget
// are suspend/resume chains; a non-empty journalDir makes the cadence
// pass journal its checkpoints the way cmd/drain does. With several
// rounds (alternating the two passes) every time is the rounds' median:
// identical replays differ by up to 15% on a shared machine.
func replay(qs []query, journalDir string, rounds int) (*replayStats, error) {
	var plain, timed []replayRun
	for i := 0; i < rounds; i++ {
		var p, t replayRun
		if err := p.run(qs, 0, ""); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if err := t.run(qs, checkpointEvery, journalDir); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		plain, timed = append(plain, p), append(timed, t)
	}
	return &replayStats{plain: medianRun(plain), timed: medianRun(timed)}, nil
}

// medianRun takes each time's median over the rounds; the counts are
// the same in every round.
func medianRun(runs []replayRun) replayRun {
	out := runs[0]
	field := func(get func(r *replayRun) *time.Duration) {
		ds := make([]time.Duration, len(runs))
		for i := range runs {
			ds[i] = *get(&runs[i])
		}
		*get(&out) = medianDuration(ds)
	}
	field(func(r *replayRun) *time.Duration { return &r.calls })
	field(func(r *replayRun) *time.Duration { return &r.encode })
	field(func(r *replayRun) *time.Duration { return &r.suspend })
	field(func(r *replayRun) *time.Duration { return &r.decode })
	field(func(r *replayRun) *time.Duration { return &r.journal })
	return out
}

func (r *replayRun) run(qs []query, every int, journalDir string) error {
	for i, q := range qs {
		var log *journal.Log
		if journalDir != "" {
			start := time.Now()
			l, err := journal.Open(filepath.Join(journalDir, fmt.Sprintf("replay-%d.journal", i)), journal.SyncAlways)
			if err != nil {
				return err
			}
			r.journal += time.Since(start)
			log = l
		}
		err := r.solve(q, every, log)
		if log != nil {
			path := log.Path()
			if cerr := log.Close(); err == nil {
				err = cerr
			}
			os.Remove(path)
			os.Remove(path + ".lock")
		}
		if err != nil {
			return fmt.Errorf("%s: %w", q.id(), err)
		}
	}
	return nil
}

// solve runs one query to its verdict, leg by leg when it has a budget.
func (r *replayRun) solve(q query, every int, log *journal.Log) error {
	var ck *feasibility.Checkpoint
	for {
		s := q.instance().Solver()
		s.Workers = 1
		if q.Budget > 0 {
			s.MaxExpansions = q.Budget
		}
		if every > 0 {
			s.CheckpointEvery = every
			s.OnCheckpoint = func(cp *feasibility.Checkpoint) error {
				start := time.Now()
				raw, err := cp.MarshalBinary()
				r.encode += time.Since(start)
				if err != nil {
					return err
				}
				r.checkpoints++
				r.ckptBytes += int64(len(raw))
				if log == nil {
					return nil
				}
				start = time.Now()
				defer func() { r.journal += time.Since(start) }()
				if err := log.Append(append([]byte{'C'}, raw...)); err != nil {
					return err
				}
				if log.Len() > drainCompactAbove {
					last, _ := log.Last()
					return log.Compact([][]byte{last})
				}
				return nil
			}
		}
		start := time.Now()
		var (
			res feasibility.Result
			cp  *feasibility.Checkpoint
			err error
		)
		if ck == nil {
			res, cp, err = s.SolveContext(context.Background())
		} else {
			res, cp, err = s.Resume(context.Background(), ck)
		}
		r.calls += time.Since(start)
		r.ops++
		switch {
		case err == nil:
			r.add(res)
			if log != nil {
				start := time.Now()
				err := log.Append([]byte(fmt.Sprintf("V impossible=%v tier=%d", res.Impossible, res.Tier)))
				r.journal += time.Since(start)
				return err
			}
			return nil
		case cp == nil:
			return err
		}
		start = time.Now()
		raw, err := cp.MarshalBinary()
		r.suspend += time.Since(start)
		if err != nil {
			return err
		}
		r.checkpoints++
		r.ckptBytes += int64(len(raw))
		start = time.Now()
		ck, err = feasibility.UnmarshalCheckpoint(raw)
		r.decode += time.Since(start)
		if err != nil {
			return err
		}
	}
}

func (r *replayRun) add(res feasibility.Result) {
	r.res.ExpansionUnits += res.ExpansionUnits
	r.res.TablesExplored += res.TablesExplored
	r.res.StatesInterned += res.StatesInterned
	r.res.StatesReexpanded += res.StatesReexpanded
	r.res.BranchesReused += res.BranchesReused
	r.res.BranchesDominated += res.BranchesDominated
	r.res.TablesMemoHit += res.TablesMemoHit
}

// attribute scales the replay to the traced phase's operation count and
// adds the solver, checkpoint and journal layers and their counters.
func (rp *replayStats) attribute(a *attribution) {
	p, t := rp.plain, rp.timed
	scale := a.ops() / float64(p.ops)
	capture := t.calls - p.calls - t.encode - t.journal
	if capture < 0 {
		capture = 0
	}
	a.self["solver"] += time.Duration(float64(p.calls) * scale)
	a.self["checkpoint"] += time.Duration(float64(capture+t.encode+t.suspend+t.decode) * scale)
	a.self["journal"] += time.Duration(float64(t.journal) * scale)

	ops := float64(p.ops)
	a.counts["solver.units_per_op"] = float64(p.res.ExpansionUnits) / ops
	a.counts["solver.units_per_s"] = float64(p.res.ExpansionUnits) / p.calls.Seconds()
	a.counts["solver.tables_per_op"] = float64(p.res.TablesExplored) / ops
	a.counts["solver.states_interned_per_op"] = float64(p.res.StatesInterned) / ops
	a.counts["solver.states_reexpanded_per_op"] = float64(p.res.StatesReexpanded) / ops
	a.counts["solver.branches_reused_per_op"] = float64(p.res.BranchesReused) / ops
	a.counts["solver.branches_dominated_per_op"] = float64(p.res.BranchesDominated) / ops
	a.counts["solver.tables_memo_hit_per_op"] = float64(p.res.TablesMemoHit) / ops
	a.counts["checkpoint.count_per_op"] = float64(t.checkpoints) / ops
	if t.checkpoints > 0 {
		a.counts["checkpoint.bytes_avg"] = float64(t.ckptBytes) / float64(t.checkpoints)
	}
	a.notes = append(a.notes, fmt.Sprintf(
		"replay of %d solver calls: solve %.1f ms, with cadence %.1f ms, encode %.1f ms, suspension encode %.1f ms, decode %.1f ms, journal %.1f ms, capture %.1f ms",
		p.ops, ms(p.calls), ms(t.calls), ms(t.encode), ms(t.suspend), ms(t.decode), ms(t.journal), ms(capture)))
}
