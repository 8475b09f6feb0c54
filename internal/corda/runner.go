package corda

import (
	"fmt"

	"ringrobots/internal/ring"
)

// stepper is what both runtimes share: the world, the algorithm, the
// move observers, the step and move counts, and the model's rules for
// the two halves of a Look-Compute-Move cycle (look, move).
type stepper struct {
	World     *World
	Algorithm Algorithm
	Observers []MoveObserver

	step  int
	moves int
}

// Observe registers a move observer.
func (s *stepper) Observe(obs MoveObserver) { s.Observers = append(s.Observers, obs) }

// Steps returns the number of steps taken so far: activations for a
// Runner, scheduled actions for an AsyncRunner.
func (s *stepper) Steps() int { return s.step }

// Moves returns the number of executed moves so far.
func (s *stepper) Moves() int { return s.moves }

// look is the Look and Compute half of robot id's cycle. moving is
// false when the robot decides to stay, which ends its cycle. Otherwise
// dir is its move: a symmetric snapshot turns any moving decision into
// Either, since the robot cannot tell its directions apart, and Either
// goes the way either says. either is called once per moving decision,
// Either or not, so an adversary's choices stay in step with the
// decisions it sees.
func (s *stepper) look(id int, either func() ring.Direction) (dir ring.Direction, moving bool, err error) {
	snap, loDir := s.World.Snapshot(id)
	d := s.Algorithm.Compute(snap)
	if d == Stay {
		return 0, false, nil
	}
	if snap.Symmetric() {
		d = Either
	}
	dir, err = decisionDirection(d, loDir, either())
	return dir, err == nil, err
}

// move is the Move half: robot id steps in direction dir, and the
// event, stamped with the current step, reaches every observer. An
// error means the algorithm violated the model (collision).
func (s *stepper) move(id int, dir ring.Direction) error {
	ev, err := s.World.MoveRobot(id, dir)
	if err != nil {
		return fmt.Errorf("%s at step %d: %w", s.Algorithm.Name(), s.step, err)
	}
	ev.Step = s.step
	s.moves++
	for _, obs := range s.Observers {
		obs.ObserveMove(ev, s.World)
	}
	return nil
}

// Runner executes an algorithm with atomic Look-Compute-Move cycles,
// activating robots 0,1,…,k−1 in turn and resolving Either clockwise:
// the fair deterministic schedule used for verification. Atomicity
// makes runs reproducible; the paper's algorithms guarantee at most one
// robot ever decides to move in any reachable configuration, so atomic
// scheduling loses no generality for them (AsyncRunner exercises the
// general asynchronous case).
type Runner struct {
	stepper
}

// NewRunner wires a runner over w.
func NewRunner(w *World, alg Algorithm) *Runner {
	return &Runner{stepper{World: w, Algorithm: alg}}
}

// Step activates robot Steps() mod k through a full cycle and reports
// whether it moved. An error means the algorithm violated the model
// (collision).
func (r *Runner) Step() (moved bool, err error) {
	id := r.step % r.World.K()
	dir, moving, err := r.look(id, clockwise)
	if moving {
		err = r.move(id, dir)
	}
	r.step++
	return moving && err == nil, err
}

func clockwise() ring.Direction { return ring.CW }

// RunUntil steps until stop returns true, every robot stays (quiescence),
// or maxSteps activations elapse. It reports how it stopped.
type StopReason int

const (
	// StopCondition: the stop predicate returned true.
	StopCondition StopReason = iota
	// StopQuiescent: a full round of activations produced no move and no
	// robot wants to move.
	StopQuiescent
	// StopBudget: maxSteps activations elapsed.
	StopBudget
)

func (s StopReason) String() string {
	switch s {
	case StopCondition:
		return "condition"
	case StopQuiescent:
		return "quiescent"
	case StopBudget:
		return "budget"
	}
	return fmt.Sprintf("StopReason(%d)", int(s))
}

// RunUntil drives the runner. stop may be nil (run to quiescence/budget).
func (r *Runner) RunUntil(stop func(w *World) bool, maxSteps int) (StopReason, error) {
	idleStreak := 0
	for r.step < maxSteps {
		if stop != nil && stop(r.World) {
			return StopCondition, nil
		}
		moved, err := r.Step()
		if err != nil {
			return StopBudget, err
		}
		if moved {
			idleStreak = 0
		} else {
			idleStreak++
			if idleStreak >= r.World.K() && len(MoverSet(r.World, r.Algorithm)) == 0 {
				return StopQuiescent, nil
			}
		}
	}
	if stop != nil && stop(r.World) {
		return StopCondition, nil
	}
	return StopBudget, nil
}

// MoverSet returns the identities of robots that would move if activated
// in the current world — the paper's algorithms keep this a singleton on
// every reachable configuration (or empty at termination).
func MoverSet(w *World, alg Algorithm) []int {
	var movers []int
	for id := 0; id < w.K(); id++ {
		snap, _ := w.Snapshot(id)
		if alg.Compute(snap).Moving() {
			movers = append(movers, id)
		}
	}
	return movers
}
