package corda

import (
	"fmt"
	"math/rand"

	"ringrobots/internal/ring"
)

// ActionKind distinguishes the two halves of an asynchronous cycle.
type ActionKind int

const (
	// ActLookCompute makes a robot look and compute; if it decides to
	// move, the move becomes pending until the adversary executes it.
	ActLookCompute ActionKind = iota
	// ActMove executes a robot's pending move.
	ActMove
)

func (k ActionKind) String() string {
	if k == ActLookCompute {
		return "look"
	}
	return "move"
}

// Action is one adversary scheduling decision.
type Action struct {
	Kind  ActionKind
	Robot int
}

// AsyncScheduler is the adversary of the fully asynchronous model: it
// interleaves Look-Compute and Move halves of robot cycles arbitrarily
// (subject to each robot finishing a pending move before looking again)
// and resolves Either decisions.
type AsyncScheduler interface {
	// NextAction picks the next action. pending[id] reports whether robot
	// id has a computed move awaiting execution.
	NextAction(w *World, pending []bool, step int) Action
	// ResolveEither picks the direction of an Either decision at
	// compute time.
	ResolveEither(w *World, id, step int) ring.Direction
}

// AsyncRunner executes an algorithm under full asynchrony: a robot's
// Compute may be based on an arbitrarily outdated snapshot, because other
// actions can be scheduled between its Look and its Move (§2: "robots that
// cannot communicate may move based on outdated perceptions").
type AsyncRunner struct {
	stepper
	Scheduler AsyncScheduler

	pending []pendingMove
}

type pendingMove struct {
	active bool
	dir    ring.Direction
}

// NewAsyncRunner builds an async runner.
func NewAsyncRunner(w *World, alg Algorithm, sched AsyncScheduler) *AsyncRunner {
	return &AsyncRunner{
		stepper:   stepper{World: w, Algorithm: alg},
		Scheduler: sched,
		pending:   make([]pendingMove, w.K()),
	}
}

// Pending reports whether robot id has an unexecuted move.
func (r *AsyncRunner) Pending(id int) bool { return r.pending[id].active }

// PendingCount returns the number of unexecuted moves.
func (r *AsyncRunner) PendingCount() int {
	n := 0
	for _, p := range r.pending {
		if p.active {
			n++
		}
	}
	return n
}

// Step performs one adversary-chosen action. moved reports whether a move
// was executed (not merely computed).
func (r *AsyncRunner) Step() (moved bool, err error) {
	flags := make([]bool, len(r.pending))
	for i, p := range r.pending {
		flags[i] = p.active
	}
	a := r.Scheduler.NextAction(r.World, flags, r.step)
	defer func() { r.step++ }()
	switch a.Kind {
	case ActLookCompute:
		if r.pending[a.Robot].active {
			return false, fmt.Errorf("corda: scheduler looked robot %d while its move is pending", a.Robot)
		}
		dir, moving, err := r.look(a.Robot, func() ring.Direction {
			return r.Scheduler.ResolveEither(r.World, a.Robot, r.step)
		})
		if moving {
			r.pending[a.Robot] = pendingMove{active: true, dir: dir}
		}
		return false, err // a moving cycle completes at its Move
	case ActMove:
		if !r.pending[a.Robot].active {
			return false, fmt.Errorf("corda: scheduler moved robot %d with no pending move", a.Robot)
		}
		dir := r.pending[a.Robot].dir
		r.pending[a.Robot] = pendingMove{}
		err := r.move(a.Robot, dir)
		return err == nil, err
	}
	return false, fmt.Errorf("corda: unknown action kind %v", a.Kind)
}

// RunUntil drives the runner until stop holds, quiescence (no pending
// moves and no robot wants to move), or the budget is spent.
func (r *AsyncRunner) RunUntil(stop func(w *World) bool, maxSteps int) (StopReason, error) {
	idle := 0
	for r.step < maxSteps {
		if stop != nil && stop(r.World) && r.PendingCount() == 0 {
			return StopCondition, nil
		}
		moved, err := r.Step()
		if err != nil {
			return StopBudget, err
		}
		if moved {
			idle = 0
			continue
		}
		idle++
		if idle >= 2*r.World.K() && r.PendingCount() == 0 && len(MoverSet(r.World, r.Algorithm)) == 0 {
			return StopQuiescent, nil
		}
	}
	if stop != nil && stop(r.World) && r.PendingCount() == 0 {
		return StopCondition, nil
	}
	return StopBudget, nil
}

// RandomAsync is a seeded adversary: it picks uniformly among all legal
// actions (looking a robot with no pending move, or executing any pending
// move), optionally biased to hold moves pending longer. It is fair with
// probability 1.
type RandomAsync struct {
	Rng *rand.Rand
	// HoldBias in [0,1) is the probability of preferring a Look action
	// even when pending moves exist, stretching the window in which
	// snapshots go stale. 0 means uniform over all legal actions.
	HoldBias float64
}

// NewRandomAsync returns a seeded random asynchronous adversary.
func NewRandomAsync(seed int64, holdBias float64) *RandomAsync {
	return &RandomAsync{Rng: rand.New(rand.NewSource(seed)), HoldBias: holdBias}
}

// NextAction implements AsyncScheduler.
func (s *RandomAsync) NextAction(w *World, pending []bool, step int) Action {
	var looks, moves []int
	for id, p := range pending {
		if p {
			moves = append(moves, id)
		} else {
			looks = append(looks, id)
		}
	}
	if len(moves) == 0 {
		return Action{Kind: ActLookCompute, Robot: looks[s.Rng.Intn(len(looks))]}
	}
	if len(looks) == 0 || (s.HoldBias == 0 && s.Rng.Intn(len(looks)+len(moves)) >= len(looks)) ||
		(s.HoldBias > 0 && s.Rng.Float64() >= s.HoldBias) {
		return Action{Kind: ActMove, Robot: moves[s.Rng.Intn(len(moves))]}
	}
	return Action{Kind: ActLookCompute, Robot: looks[s.Rng.Intn(len(looks))]}
}

// ResolveEither implements AsyncScheduler.
func (s *RandomAsync) ResolveEither(w *World, id, step int) ring.Direction {
	if s.Rng.Intn(2) == 0 {
		return ring.CW
	}
	return ring.CCW
}

// Script is a fixed adversary schedule for reproducing the paper's proof
// scenarios verbatim in tests.
type Script struct {
	Actions []Action
	// Either lists directions consumed in order by Either resolutions.
	Either []ring.Direction

	next, nextEither int
}

// NextAction implements AsyncScheduler; it panics past the end of the
// script (tests size budgets to the script).
func (s *Script) NextAction(w *World, pending []bool, step int) Action {
	a := s.Actions[s.next]
	s.next++
	return a
}

// ResolveEither implements AsyncScheduler.
func (s *Script) ResolveEither(w *World, id, step int) ring.Direction {
	if s.nextEither < len(s.Either) {
		d := s.Either[s.nextEither]
		s.nextEither++
		return d
	}
	return ring.CW
}
