// Package corda implements the min-CORDA model of computation (§2.1):
// anonymous, uniform, oblivious, disoriented robots on an anonymous ring,
// operating in asynchronous Look-Compute-Move cycles, perceiving only the
// positions of the other robots (plus, optionally, a local multiplicity
// bit), with all scheduling controlled by an adversary.
//
// The package provides two executions of the same semantics:
//
//   - Runner: deterministic sequential stepper (one atomic
//     Look-Compute-Move per step) used for verification;
//   - AsyncRunner: explicit pending-move state, letting an adversary
//     separate a robot's Look from its Move arbitrarily.
package corda

import (
	"fmt"

	"ringrobots/internal/config"
	"ringrobots/internal/ring"
)

// Snapshot is everything a robot perceives during its Look phase: its two
// directional views ordered lexicographically, and — when the multiplicity
// capability is enabled — whether its own node hosts more than one robot
// (local/weak multiplicity detection, §2.1).
//
// Snapshots deliberately expose no node labels and no globally consistent
// orientation: Lo and Hi are defined only relative to the robot itself.
type Snapshot struct {
	// Lo and Hi are the two views from the robot's node; Lo ≤ Hi
	// lexicographically. When Lo equals Hi the robot cannot distinguish
	// the two directions.
	Lo, Hi config.View
	// Multiplicity reports >1 robot on the robot's own node. Always false
	// unless the world was built with multiplicity detection enabled.
	Multiplicity bool
}

// N returns the ring size implied by the snapshot.
func (s Snapshot) N() int { return len(s.Lo) + s.Lo.Sum() }

// OccupiedNodes returns the number of occupied nodes the robot sees.
func (s Snapshot) OccupiedNodes() int { return len(s.Lo) }

// Symmetric reports whether the robot's two views coincide, i.e. the robot
// lies on an axis of symmetry and cannot distinguish its two directions.
func (s Snapshot) Symmetric() bool { return s.Lo.Equal(s.Hi) }

// Decision is the outcome of a robot's Compute phase.
type Decision int

const (
	// Stay keeps the robot idle for this cycle.
	Stay Decision = iota
	// TowardLo moves one step in the direction whose view is Lo.
	TowardLo
	// TowardHi moves one step in the direction whose view is Hi.
	TowardHi
	// Either moves one step in an adversary-chosen direction. It is the
	// only well-defined moving decision when the snapshot is symmetric
	// (the paper's "moves in an arbitrary direction", §3.1).
	Either
)

func (d Decision) String() string {
	switch d {
	case Stay:
		return "stay"
	case TowardLo:
		return "toward-lo"
	case TowardHi:
		return "toward-hi"
	case Either:
		return "either"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// Moving reports whether the decision moves the robot.
func (d Decision) Moving() bool { return d != Stay }

// Algorithm is the protocol run identically by every robot: a pure
// function from perception to decision. Implementations must be
// deterministic and must not retain state between calls (robots are
// oblivious).
type Algorithm interface {
	// Name identifies the algorithm in traces and errors.
	Name() string
	// Compute maps a snapshot to a decision.
	Compute(s Snapshot) Decision
}

// AlgorithmFunc adapts a function to the Algorithm interface.
type AlgorithmFunc struct {
	Label string
	Fn    func(Snapshot) Decision
}

// Name implements Algorithm.
func (a AlgorithmFunc) Name() string { return a.Label }

// Compute implements Algorithm.
func (a AlgorithmFunc) Compute(s Snapshot) Decision { return a.Fn(s) }

// MoveEvent describes one executed move, for observers (contamination and
// exploration trackers, traces).
type MoveEvent struct {
	Robot    int // simulator-internal robot identity
	From, To int // simulator-internal node labels
	Step     int // step counter of the runner that produced the event
}

// MoveObserver receives every executed move. The world is in its
// post-move state when the observer runs.
type MoveObserver interface {
	ObserveMove(ev MoveEvent, w *World)
}

// CollisionError reports a violated exclusivity constraint: a robot moved
// onto an occupied node in exclusive mode, which the paper's model forbids
// and its algorithms must never cause.
type CollisionError struct {
	Robot int
	Node  int
}

func (e *CollisionError) Error() string {
	return fmt.Sprintf("corda: robot %d collided moving onto occupied node %d", e.Robot, e.Node)
}

// decisionDirection resolves a decision into a simulator direction given
// the direction that realizes the Lo view. Either is resolved by the
// provided adversary choice.
func decisionDirection(d Decision, loDir ring.Direction, eitherChoice ring.Direction) (ring.Direction, error) {
	switch d {
	case TowardLo:
		return loDir, nil
	case TowardHi:
		return loDir.Opposite(), nil
	case Either:
		return eitherChoice, nil
	}
	return 0, fmt.Errorf("corda: decision %v does not move", d)
}
