package corda

import (
	"fmt"

	"ringrobots/internal/ring"
)

// Scheduler picks which robot performs its next atomic Look-Compute-Move
// cycle and resolves direction choices the model leaves to the adversary.
type Scheduler interface {
	// NextRobot returns the identity of the robot to activate.
	NextRobot(w *World, step int) int
	// ResolveEither picks a direction for an Either decision.
	ResolveEither(w *World, id int, step int) ring.Direction
}

// RoundRobin activates robots 0,1,…,k−1 cyclically and resolves Either
// clockwise. It is the fair deterministic scheduler used for verification.
type RoundRobin struct{}

// NextRobot implements Scheduler.
func (RoundRobin) NextRobot(w *World, step int) int { return step % w.K() }

// ResolveEither implements Scheduler.
func (RoundRobin) ResolveEither(w *World, id, step int) ring.Direction { return ring.CW }

// Runner executes an algorithm with atomic Look-Compute-Move cycles.
// Atomicity makes runs reproducible; the paper's algorithms guarantee at
// most one robot ever decides to move in any reachable configuration, so
// atomic scheduling loses no generality for them (AsyncRunner exercises
// the general asynchronous case).
type Runner struct {
	World     *World
	Algorithm Algorithm
	Scheduler Scheduler
	Observers []MoveObserver

	step  int
	moves int
}

// NewRunner wires a runner with a round-robin scheduler by default.
func NewRunner(w *World, alg Algorithm) *Runner {
	return &Runner{World: w, Algorithm: alg, Scheduler: RoundRobin{}}
}

// Observe registers a move observer.
func (r *Runner) Observe(obs MoveObserver) { r.Observers = append(r.Observers, obs) }

// Step activates one robot through a full cycle and reports whether it
// moved. An error means the algorithm violated the model (collision).
func (r *Runner) Step() (moved bool, err error) {
	id := r.Scheduler.NextRobot(r.World, r.step)
	moved, err = r.activate(id)
	r.step++
	return moved, err
}

// Steps returns the number of activations performed so far.
func (r *Runner) Steps() int { return r.step }

// Moves returns the number of executed moves so far.
func (r *Runner) Moves() int { return r.moves }

func (r *Runner) activate(id int) (bool, error) {
	snap, loDir := r.World.Snapshot(id)
	d := r.Algorithm.Compute(snap)
	if d == Stay {
		return false, nil
	}
	if snap.Symmetric() {
		// The robot cannot distinguish its directions; any moving decision
		// is adversary-resolved.
		d = Either
	}
	dir, err := decisionDirection(d, loDir, r.Scheduler.ResolveEither(r.World, id, r.step))
	if err != nil {
		return false, err
	}
	ev, err := r.World.MoveRobot(id, dir)
	if err != nil {
		return false, fmt.Errorf("%s at step %d: %w", r.Algorithm.Name(), r.step, err)
	}
	ev.Step = r.step
	r.moves++
	for _, obs := range r.Observers {
		obs.ObserveMove(ev, r.World)
	}
	return true, nil
}

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
			if idleStreak >= r.World.K() && r.quiescent() {
				return StopQuiescent, nil
			}
		}
	}
	if stop != nil && stop(r.World) {
		return StopCondition, nil
	}
	return StopBudget, nil
}

// quiescent reports whether no robot would move if activated now.
func (r *Runner) quiescent() bool {
	for id := 0; id < r.World.K(); id++ {
		snap, _ := r.World.Snapshot(id)
		if r.Algorithm.Compute(snap).Moving() {
			return false
		}
	}
	return true
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
