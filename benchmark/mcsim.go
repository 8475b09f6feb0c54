package main

import (
	"fmt"
	"math/rand"
	"time"

	"ringrobots"
	"ringrobots/internal/corda"
)

// sweepItem is one Monte Carlo configuration of the mcsim-sweep.
type sweepItem struct {
	task ringrobots.Task
	n, k int
}

var sweepItems = []sweepItem{
	{ringrobots.Gathering, 12, 5},
	{ringrobots.Gathering, 24, 8},
	{ringrobots.Gathering, 48, 9},
	{ringrobots.Searching, 12, 6},
	{ringrobots.Searching, 24, 7},
	{ringrobots.Exploration, 24, 7},
	{ringrobots.Exploration, 64, 11},
}

// mcsimSweep builds a fresh engine per configuration and simulates it
// twice: the first Simulate is the cold operation (New included), the
// second the warm one, which must reproduce the first report exactly.
type mcsimSweep struct {
	b     *bench
	lanes int
	specs []ringrobots.SimSpec

	// Traced totals.
	sim                     time.Duration // New + Simulate time
	ticks, moves, warmTicks uint64
	cold, warm              time.Duration
}

func newMcsimSweep(b *bench) (runner, error) {
	s := &mcsimSweep{b: b, lanes: 1024}
	if b.opts.smoke {
		s.lanes = 64
	}
	return s, nil
}

// setup builds the pass's specs. Each configuration's start is a fixed
// rigid configuration (seeded by its position in the sweep), so every
// pass simulates the same worlds; the lanes' schedules come from the
// run's seed and the pass number.
func (s *mcsimSweep) setup(i int) error {
	s.specs = s.specs[:0]
	for j, it := range sweepItems {
		start, err := ringrobots.RandomRigidConfig(rand.New(rand.NewSource(int64(j+1))), it.n, it.k)
		if err != nil {
			return err
		}
		steps := 20_000 // cmd/mcsim's default for the perpetual tasks
		if it.task == ringrobots.Gathering {
			steps = 1000 * it.n * it.n
		}
		if s.b.opts.smoke {
			steps /= 10
		}
		laneSeed := uint64(s.b.opts.seed)*1_000_003 + uint64(i)*7919 + uint64(j)
		spec, err := ringrobots.MonteCarloSpec(it.task, start, s.lanes, steps, laneSeed)
		if err != nil {
			return err
		}
		s.specs = append(s.specs, spec)
	}
	return nil
}

func (s *mcsimSweep) teardown() error { return nil }

func (s *mcsimSweep) work(int) error {
	for j, spec := range s.specs {
		it := sweepItems[j]
		coldStart := time.Now()
		e, err := ringrobots.NewBatchBackend(spec, clients)
		if err != nil {
			return err
		}
		rep, err := e.Simulate()
		coldEnd := time.Now()
		if err != nil {
			s.b.fail(false, "%v n=%d k=%d: %v", it.task, it.n, it.k, err)
			continue
		}
		if err := checkGuarantees(it, rep); err != nil {
			s.b.fail(true, "%v", err)
		} else {
			s.b.op(coldEnd.Sub(coldStart))
		}
		warmStart := time.Now()
		again, err := e.Simulate()
		warmEnd := time.Now()
		switch {
		case err != nil:
			s.b.fail(false, "%v n=%d k=%d warm: %v", it.task, it.n, it.k, err)
		case again != rep:
			s.b.fail(true, "%v n=%d k=%d: warm report differs from cold report", it.task, it.n, it.k)
		default:
			s.b.op(warmEnd.Sub(warmStart))
		}
		if s.b.tr != nil {
			cold, warm := coldEnd.Sub(coldStart), warmEnd.Sub(warmStart)
			s.b.tr.record(0, 0, "mcsim", "cold", coldStart, coldEnd, 0)
			s.b.tr.record(0, 0, "mcsim", "warm", warmStart, warmEnd, 0)
			s.sim += cold + warm
			s.cold += cold
			s.warm += warm
			s.ticks += rep.Steps + again.Steps
			s.moves += rep.Moves + again.Moves
			s.warmTicks += again.Steps
		}
	}
	return nil
}

// checkGuarantees checks what the paper proves regardless of schedule:
// every gathering lane gathers, and exclusive worlds never collide.
func checkGuarantees(it sweepItem, rep ringrobots.SimReport) error {
	if it.task == ringrobots.Gathering {
		if rep.Gathered() != rep.Samples {
			return fmt.Errorf("gathering n=%d k=%d: %d of %d lanes gathered", it.n, it.k, rep.Gathered(), rep.Samples)
		}
		return nil
	}
	if c := rep.Outcomes[corda.LaneCollision]; c != 0 {
		return fmt.Errorf("%v n=%d k=%d: %d lanes collided", it.task, it.n, it.k, c)
	}
	return nil
}

// attribute: the sweep's end-to-end time is its passes' work, of which
// everything but building specs and comparing reports is the simulator.
func (s *mcsimSweep) attribute(a *attribution) error {
	a.e2e = a.ph.work
	a.self["mcsim"] = s.sim
	ops := a.ops()
	a.counts["mcsim.ticks_per_op"] = float64(s.ticks) / ops
	a.counts["mcsim.moves_per_op"] = float64(s.moves) / ops
	a.counts["mcsim.warm_ticks_per_s"] = float64(s.warmTicks) / s.warm.Seconds()
	a.counts["mcsim.cold_warm_ratio"] = float64(s.cold) / float64(s.warm)
	return nil
}
