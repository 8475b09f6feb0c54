package corda_test

import (
	"fmt"
	"slices"
	"testing"

	"ringrobots/internal/align"
	"ringrobots/internal/config"
	"ringrobots/internal/corda"
	"ringrobots/internal/enumerate"
	"ringrobots/internal/gather"
	"ringrobots/internal/ring"
	"ringrobots/internal/search"
)

// moveLog records each executed move as (robot, from, to); the step
// stamp differs between the runtimes, since an AsyncRunner counts a
// cycle's Look and its Move as two steps.
type moveLog []corda.MoveEvent

func (l *moveLog) ObserveMove(ev corda.MoveEvent, w *corda.World) {
	*l = append(*l, corda.MoveEvent{Robot: ev.Robot, From: ev.From, To: ev.To})
}

// roundRobinAsync is an asynchronous adversary that reproduces Runner's
// schedule: it moves any pending robot at once, and otherwise looks at
// robot activations mod k, resolving Either clockwise.
type roundRobinAsync struct{ activations int }

func (s *roundRobinAsync) NextAction(w *corda.World, pending []bool, step int) corda.Action {
	if id := slices.Index(pending, true); id >= 0 {
		return corda.Action{Kind: corda.ActMove, Robot: id}
	}
	id := s.activations % w.K()
	s.activations++
	return corda.Action{Kind: corda.ActLookCompute, Robot: id}
}

func (s *roundRobinAsync) ResolveEither(w *corda.World, id, step int) ring.Direction { return ring.CW }

// TestRuntimesAgree: Runner and an AsyncRunner whose adversary follows
// Runner's schedule execute the same moves, in the same order, from
// Align, Gathering and Ring Clearing starts.
func TestRuntimesAgree(t *testing.T) {
	exclusive := func(c config.Config) (*corda.World, error) { return corda.FromConfig(c, true), nil }
	for _, tc := range []struct {
		name  string
		alg   corda.Algorithm
		world func(config.Config) (*corda.World, error)
		n, k  int
	}{
		{"align", align.Algorithm{}, exclusive, 9, 4},
		{"align", align.Algorithm{}, exclusive, 10, 5},
		{"gathering", gather.Gathering{}, gather.NewWorld, 8, 4},
		{"gathering", gather.Gathering{}, gather.NewWorld, 9, 3},
		{"ring-clearing", search.RingClearing{}, exclusive, 11, 5},
		{"ring-clearing", search.RingClearing{}, exclusive, 12, 6},
	} {
		starts, err := enumerate.RigidClasses(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if len(starts) > 4 {
			starts = starts[:4]
		}
		moves := 0
		for _, start := range starts {
			t.Run(fmt.Sprintf("%s/%v", tc.name, start), func(t *testing.T) {
				activations := 30 * tc.k
				w, err := tc.world(start)
				if err != nil {
					t.Fatal(err)
				}
				var seq moveLog
				r := corda.NewRunner(w, tc.alg)
				r.Observe(&seq)
				for i := 0; i < activations; i++ {
					if _, err := r.Step(); err != nil {
						t.Fatal(err)
					}
				}
				moves += len(seq)

				w, err = tc.world(start)
				if err != nil {
					t.Fatal(err)
				}
				var async moveLog
				sched := &roundRobinAsync{}
				a := corda.NewAsyncRunner(w, tc.alg, sched)
				a.Observe(&async)
				for sched.activations < activations || a.PendingCount() > 0 {
					if _, err := a.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if !slices.Equal(seq, async) {
					t.Fatalf("moves differ:\nRunner      %v\nAsyncRunner %v", seq, async)
				}
				if r.Moves() != a.Moves() {
					t.Fatalf("Runner counted %d moves, AsyncRunner %d", r.Moves(), a.Moves())
				}
			})
		}
		if moves == 0 {
			t.Errorf("%s (%d,%d): no start moved a robot", tc.name, tc.n, tc.k)
		}
	}
}
