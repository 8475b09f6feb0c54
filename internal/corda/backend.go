package corda

import (
	"fmt"
	"math/bits"

	"ringrobots/internal/config"
	"ringrobots/internal/ring"
)

// This file defines the backend contract that separates the package's
// proof-oriented engines (Runner / AsyncRunner: one world at a time,
// built for verification and trace extraction) from throughput-oriented
// ones (internal/mcsim: thousands of struct-of-array worlds stepped in a
// tight loop). A Backend consumes a SimSpec — a Monte Carlo workload
// over independent fair-schedule samples — and produces a SimReport of
// deterministic aggregate statistics.
//
// The determinism contract: a SimSpec fully determines every lane. Lane
// i's schedule randomness is an independent splittable stream derived
// from (Seed, i), so any two backends — or the same backend at any
// worker count — that honor the contract produce identical reports.

// SimSpec describes a batch of independent schedule samples: every lane
// starts from Start, runs Algorithm under a uniformly random fair
// asynchronous schedule (each scheduler tick activates a uniformly
// chosen robot: robots holding a pending move execute it, others perform
// Look-Compute), and stops on gathering, a collision, or the MaxSteps
// tick budget.
type SimSpec struct {
	// Start is the shared starting configuration (one robot per occupied
	// node; rings up to config.MaxMaskRing nodes).
	Start config.Config
	// Algorithm is the per-robot protocol; it must be a pure function of
	// the Snapshot (the corda.Algorithm contract), which is what lets
	// batch backends memoize decisions per perception class.
	Algorithm Algorithm
	// Exclusive enforces the exclusivity property: a move onto an
	// occupied node ends the lane with LaneCollision.
	Exclusive bool
	// Multiplicity enables the local multiplicity bit in perceptions
	// (required by gathering).
	Multiplicity bool
	// StopOnGathered ends a lane once all robots share one node and no
	// move is pending (the gathering task's goal test).
	StopOnGathered bool
	// TrackClearing maintains the mixed graph-searching contamination
	// state (§4.1) per lane and reports clearing statistics.
	TrackClearing bool
	// Samples is the number of independent lanes.
	Samples int
	// MaxSteps is the per-lane scheduler-tick budget (each tick is one
	// Look-Compute or one Move half-cycle).
	MaxSteps int
	// Seed derives every lane's independent randomness stream.
	Seed uint64
}

// Validate reports whether the spec is runnable.
func (s SimSpec) Validate() error {
	if s.Algorithm == nil {
		return fmt.Errorf("corda: sim spec needs an algorithm")
	}
	if s.Start.N() == 0 {
		return fmt.Errorf("corda: sim spec needs a starting configuration")
	}
	if s.Start.N() > config.MaxMaskRing {
		return fmt.Errorf("corda: ring size %d exceeds the %d-node batch limit", s.Start.N(), config.MaxMaskRing)
	}
	if s.Samples <= 0 {
		return fmt.Errorf("corda: sim spec needs Samples > 0, got %d", s.Samples)
	}
	if s.MaxSteps <= 0 {
		return fmt.Errorf("corda: sim spec needs MaxSteps > 0, got %d", s.MaxSteps)
	}
	return nil
}

// LaneOutcome is how one lane ended.
type LaneOutcome uint8

const (
	// LaneBudget: the tick budget elapsed without reaching a goal state.
	LaneBudget LaneOutcome = iota
	// LaneGathered: all robots on one node with no pending move.
	LaneGathered
	// LaneCollision: the algorithm moved a robot onto an occupied node
	// in exclusive mode (a model violation; the lane ends immediately).
	LaneCollision

	numLaneOutcomes
)

func (o LaneOutcome) String() string {
	switch o {
	case LaneBudget:
		return "budget"
	case LaneGathered:
		return "gathered"
	case LaneCollision:
		return "collision"
	}
	return fmt.Sprintf("LaneOutcome(%d)", int(o))
}

// Histogram is a fixed-size power-of-two-bucket histogram: a value v is
// counted in bucket bits.Len64(v), so bucket b holds values in
// [2^(b−1), 2^b). Fixed size keeps SimReport comparable with ==, the
// property the determinism tests pin.
type Histogram struct {
	Buckets [40]uint64
}

// Add counts v.
func (h *Histogram) Add(v uint64) {
	b := bits.Len64(v)
	if b >= len(h.Buckets) {
		b = len(h.Buckets) - 1
	}
	h.Buckets[b]++
}

// Total returns the number of counted values.
func (h Histogram) Total() uint64 {
	var t uint64
	for _, c := range h.Buckets {
		t += c
	}
	return t
}

// String renders the non-empty buckets compactly.
func (h Histogram) String() string {
	s := "{"
	first := true
	for b, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if !first {
			s += " "
		}
		first = false
		lo := uint64(0)
		if b > 0 {
			lo = uint64(1) << uint(b-1)
		}
		s += fmt.Sprintf("<%d:%d", lo*2, c)
	}
	return s + "}"
}

// SimReport aggregates a batch of lanes. All fields are fixed-size
// value types, so two reports compare with == — the bit-identical
// determinism contract across worker counts and backends.
type SimReport struct {
	// Samples is the number of lanes simulated.
	Samples int
	// Steps is the total number of scheduler ticks across lanes.
	Steps uint64
	// Moves is the total number of executed moves.
	Moves uint64
	// Outcomes counts lanes by LaneOutcome.
	Outcomes [numLaneOutcomes]int
	// GatherHist is the distribution of ticks-to-gather over gathered
	// lanes; GatherSum their total (GatherSum/Outcomes[LaneGathered] is
	// the empirical mean gathering time).
	GatherHist Histogram
	GatherSum  uint64
	// CoverageSum is the summed per-lane count of distinct nodes visited
	// by at least one robot; CoveredLanes counts lanes that visited all
	// n nodes.
	CoverageSum  uint64
	CoveredLanes int
	// Clearing statistics (zero unless SimSpec.TrackClearing). After
	// every all-clear event the adversarial recontamination probe of the
	// searching verifiers (search.Contamination.Reset) is applied —
	// otherwise the all-clear state would be absorbing and recurrence
	// unobservable. AllClearEvents totals all-clear events across lanes,
	// AllClearLanes counts lanes with at least one, RecurrentClearLanes
	// those that cleared again after a full recontamination (evidence of
	// *perpetual* clearing, the searching task's goal), and ClearSum the
	// summed final clear-edge counts.
	AllClearEvents      uint64
	AllClearLanes       int
	RecurrentClearLanes int
	ClearSum            uint64
}

// Gathered returns the number of gathered lanes.
func (r SimReport) Gathered() int { return r.Outcomes[LaneGathered] }

// GatheredRate returns the empirical gathering frequency.
func (r SimReport) GatheredRate() float64 {
	return float64(r.Gathered()) / float64(r.Samples)
}

// MeanGatherSteps returns the mean ticks-to-gather over gathered lanes
// (0 when none gathered).
func (r SimReport) MeanGatherSteps() float64 {
	if r.Gathered() == 0 {
		return 0
	}
	return float64(r.GatherSum) / float64(r.Gathered())
}

// Backend runs a SimSpec to a SimReport. Implementations: the batch
// engine internal/mcsim.Engine (struct-of-arrays lanes, millions of
// steps per second) and internal/mcsim.ProofBackend (the same workload
// driven one world at a time through corda.AsyncRunner — the reference
// semantics the batch engine is differentially tested against).
type Backend interface {
	Name() string
	Simulate() (SimReport, error)
}

// SnapshotFromMask builds what a robot on occupied node u of the
// occupancy mask occ perceives (ring of n ≤ 64 nodes, mult the robot's
// local multiplicity bit), together with the simulator direction
// realizing the Lo view. It is World.Snapshot reconstructed from a
// packed lane state: bufLo and bufHi are caller-owned scratch the
// returned views alias (grown as needed and returned), so steady-state
// callers allocate nothing. The construction — CW view, CCW view,
// lexicographic ordering with CW winning ties — matches World.Snapshot
// exactly; TestSnapshotFromMaskMatchesWorld pins the equivalence.
func SnapshotFromMask(occ uint64, n, u int, mult bool, bufLo, bufHi config.View) (Snapshot, ring.Direction, config.View, config.View) {
	cw := config.ViewFromMaskInto(occ, n, u, ring.CW, bufLo)
	ccw := config.ViewFromMaskInto(occ, n, u, ring.CCW, bufHi)
	lo, hi, loDir := cw, ccw, ring.CW
	if ccw.Less(cw) {
		lo, hi, loDir = ccw, cw, ring.CCW
	}
	return Snapshot{Lo: lo, Hi: hi, Multiplicity: mult}, loDir, cw, ccw
}
