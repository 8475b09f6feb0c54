package mcsim

import (
	"ringrobots/internal/config"
	"ringrobots/internal/corda"
	"ringrobots/internal/core"
)

// SpecFor assembles the SimSpec matching a task's capability model —
// the same pairing core.NewWorld makes for the proof engines: exclusive
// worlds for the two perpetual tasks (with contamination tracking for
// searching), a multiplicity-detecting non-exclusive world stopping on
// gathering for the gathering task. The algorithm is the paper's
// (core.New), so the start must lie in the proven-solvable range.
func SpecFor(task core.Task, start config.Config, samples, maxSteps int, seed uint64) (corda.SimSpec, error) {
	alg, err := core.New(task, start.N(), start.K())
	if err != nil {
		return corda.SimSpec{}, err
	}
	spec := corda.SimSpec{
		Start:     start,
		Algorithm: alg,
		Samples:   samples,
		MaxSteps:  maxSteps,
		Seed:      seed,
	}
	switch task {
	case core.Gathering:
		spec.Multiplicity = true
		spec.StopOnGathered = true
	case core.Searching:
		spec.Exclusive = true
		spec.TrackClearing = true
	default: // Exploration: coverage statistics come for free
		spec.Exclusive = true
	}
	if err := spec.Validate(); err != nil {
		return corda.SimSpec{}, err
	}
	return spec, nil
}
