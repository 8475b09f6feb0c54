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
// every periodic checkpoint is encoded at the solver's quiesce barrier
// and journaled (with PutCheckpoint and compaction) behind the search
// by feasibility.WriteBehind, so the journal receives every
// checkpoint, in order. The durability contract is therefore:
//   - every periodic checkpoint except the newest is durable (under the
//     store's sync policy) while the solve runs;
//   - the verdict, and a budget or cancel suspension's checkpoint, are
//     journaled after the last periodic write completes and are durable
//     before Drain returns (the suspension checkpoint is also returned,
//     like Solver.Resume);
//   - a storage failure stops the solve at the next checkpoint barrier
//     (or, if the solve ends first, before its verdict or suspension is
//     journaled).
//
// After every journaled record the store compacts once past
// compactAbove records (see CompactIfAbove); a failed compaction is
// logged, since the append-only log is already correct, and returned
// only when the journal has failed for good (journal.ErrFailed). Every
// storage failure returned matches ErrStorage. resumed reports whether
// the run continued a stored checkpoint.
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
	put := func(raw []byte) error {
		if err := st.PutCheckpoint(key, raw); err != nil {
			return fmt.Errorf("%w: journaling checkpoint: %w", ErrStorage, err)
		}
		return compact()
	}
	ckpts := feasibility.WriteBehind(sol, put)

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
			"survivor", s.HasPriorSurvivor)
		res, cp, err = sol.Resume(ctx, from)
	} else {
		res, cp, err = sol.SolveContext(ctx)
	}
	resumed = from != nil
	if werr := ckpts.Wait(); werr != nil {
		return res, nil, resumed, werr
	}

	switch {
	case err == nil:
		if perr := st.PutVerdict(key, VerdictOf(res)); perr != nil {
			return res, nil, resumed, fmt.Errorf("%w: journaling verdict: %w", ErrStorage, perr)
		}
		return res, nil, resumed, compact()
	case cp != nil:
		// Journal the exact suspension point, not the last periodic
		// checkpoint, so the next run resumes where this one stopped.
		raw, merr := cp.MarshalBinary()
		if merr == nil {
			merr = put(raw)
		}
		if merr != nil {
			return res, nil, resumed, fmt.Errorf("suspension checkpoint: %w", merr)
		}
	}
	return res, cp, resumed, err
}
