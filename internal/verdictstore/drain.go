package verdictstore

import (
	"context"
	"errors"
	"fmt"
	"log/slog"

	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
)

// ErrStorage tags Drain errors that originated in the store's journal
// rather than in the solve itself.
var ErrStorage = errors.New("verdictstore: storage failure")

// Drain runs sol on inst as a journaled drain under key (inst.Key()).
// It resumes the stored checkpoint when one decodes and matches inst,
// else logs why and starts from the root. With sol.CheckpointEvery > 0
// every periodic checkpoint is journaled. A verdict is journaled
// (fsynced); a budget or cancel suspension journals its checkpoint and
// returns it, like Solver.Resume. After every journaled record the store
// compacts once past compactAbove records (see CompactIfAbove); a failed
// compaction is logged, since the append-only log is already correct,
// and returned only when the journal has failed for good
// (journal.ErrFailed). Every storage failure returned matches
// ErrStorage. resumed reports whether the run continued a stored
// checkpoint.
func (st *Store) Drain(ctx context.Context, key string, inst feasibility.Instance, sol *feasibility.Solver,
	compactAbove int, log *slog.Logger) (res feasibility.Result, cp *feasibility.Checkpoint, resumed bool, err error) {
	compact := func() error {
		_, err := st.CompactIfAbove(compactAbove)
		if err == nil {
			return nil
		}
		log.Error("store compaction failed", "err", err)
		if errors.Is(err, journal.ErrFailed) {
			return fmt.Errorf("%w: compacting: %w", ErrStorage, err)
		}
		return nil
	}
	journalCheckpoint := func(cp *feasibility.Checkpoint) error {
		raw, err := cp.MarshalBinary()
		if err != nil {
			return err // an encoding failure is a software bug, not storage
		}
		if err := st.PutCheckpoint(key, raw); err != nil {
			return fmt.Errorf("%w: journaling checkpoint: %w", ErrStorage, err)
		}
		return compact()
	}
	if sol.CheckpointEvery > 0 {
		sol.OnCheckpoint = journalCheckpoint
	}

	var from *feasibility.Checkpoint
	if raw, ok := st.Checkpoint(key); ok {
		ck, derr := feasibility.UnmarshalCheckpoint(raw)
		switch {
		case derr != nil:
			log.Warn("stored checkpoint undecodable; starting fresh", "inst", inst.String(), "err", derr)
		case !ck.Matches(inst):
			log.Warn("stored checkpoint does not match instance; starting fresh", "inst", inst.String())
		default:
			from = ck
		}
	}
	if from != nil {
		s := from.Stats()
		log.Info("resuming", "inst", inst.String(), "tier", s.Tier, "tier_index", s.TierIndex,
			"frontier", s.FrontierNodes, "depth_min", s.FrontierDepthMin, "depth_max", s.FrontierDepthMax,
			"tables", s.TablesExplored, "units", s.ExpansionUnits, "credits", s.Credits,
			"nogoods", s.Nogoods, "survivor", s.HasPriorSurvivor)
		res, cp, err = sol.Resume(ctx, from)
	} else {
		res, cp, err = sol.SolveContext(ctx)
	}
	resumed = from != nil

	switch {
	case err == nil:
		if perr := st.PutVerdict(key, VerdictOf(res)); perr != nil {
			return res, nil, resumed, fmt.Errorf("%w: journaling verdict: %w", ErrStorage, perr)
		}
		return res, nil, resumed, compact()
	case cp != nil:
		// Journal the exact suspension point, not the last periodic
		// checkpoint, so the next run resumes where this one stopped.
		if perr := journalCheckpoint(cp); perr != nil {
			return res, nil, resumed, fmt.Errorf("suspension checkpoint: %w", perr)
		}
	}
	return res, cp, resumed, err
}
