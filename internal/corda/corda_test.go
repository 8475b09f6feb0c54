package corda

import (
	"errors"
	"testing"

	"ringrobots/internal/config"
	"ringrobots/internal/ring"
)

// approach is a toy algorithm: a robot moves along its lexicographically
// smaller side unless it is adjacent to another robot. With two robots it
// shrinks the smaller gap until they are adjacent, then stops.
var approach = AlgorithmFunc{
	Label: "approach",
	Fn: func(s Snapshot) Decision {
		if s.Lo[0] == 0 {
			return Stay
		}
		if s.Symmetric() {
			return Either
		}
		return TowardLo
	},
}

// crash always moves toward its Lo side, even onto occupied nodes.
var crash = AlgorithmFunc{
	Label: "crash",
	Fn: func(s Snapshot) Decision {
		if s.Symmetric() {
			return Either
		}
		return TowardLo
	},
}

// idle never moves.
var idle = AlgorithmFunc{Label: "idle", Fn: func(Snapshot) Decision { return Stay }}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(6, nil, true); err == nil {
		t.Error("accepted zero robots")
	}
	if _, err := NewWorld(6, []int{1, 1}, true); err == nil {
		t.Error("exclusive world accepted a shared node")
	}
	w, err := NewWorld(6, []int{1, 1, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.CountAt(1) != 2 || w.CountAt(4) != 1 || w.CountAt(0) != 0 {
		t.Error("counts wrong after multiplicity placement")
	}
	if w.K() != 3 || w.N() != 6 {
		t.Errorf("K=%d N=%d", w.K(), w.N())
	}
}

func TestWorldConfigCollapsesMultiplicity(t *testing.T) {
	w, err := NewWorld(8, []int{0, 0, 0, 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Config()
	if c.K() != 2 {
		t.Fatalf("configuration sees %d occupied nodes, want 2", c.K())
	}
	if !c.Occupied(0) || !c.Occupied(5) {
		t.Fatal("wrong occupied set")
	}
}

func TestSnapshotOrientation(t *testing.T) {
	c := config.MustNew(10, 0, 1, 2, 3, 5)
	w := FromConfig(c, true)
	// Robot ids follow increasing node order: id 0 at node 0.
	snap, loDir := w.Snapshot(0)
	if !snap.Lo.Equal(config.View{0, 0, 0, 1, 4}) {
		t.Errorf("Lo = %v", snap.Lo)
	}
	if !snap.Hi.Equal(config.View{4, 1, 0, 0, 0}) {
		t.Errorf("Hi = %v", snap.Hi)
	}
	if loDir != ring.CW {
		t.Errorf("loDir = %v, want cw", loDir)
	}
	if snap.Symmetric() {
		t.Error("asymmetric snapshot reported symmetric")
	}
	if snap.N() != 10 || snap.OccupiedNodes() != 5 {
		t.Errorf("N=%d, occupied=%d", snap.N(), snap.OccupiedNodes())
	}
}

func TestSnapshotLoHiOrdering(t *testing.T) {
	w := FromConfig(config.MustNew(9, 0, 2, 3), true)
	for id := 0; id < w.K(); id++ {
		snap, loDir := w.Snapshot(id)
		if snap.Hi.Less(snap.Lo) {
			t.Fatalf("robot %d: Hi < Lo", id)
		}
		// The direction handed back must realize Lo.
		u := w.Position(id)
		if !w.Config().ViewFrom(u, loDir).Equal(snap.Lo) {
			t.Fatalf("robot %d: loDir does not realize Lo", id)
		}
	}
}

func TestSnapshotMultiplicityBit(t *testing.T) {
	w, err := NewWorld(8, []int{0, 0, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Bit hidden until capability enabled.
	snap, _ := w.Snapshot(0)
	if snap.Multiplicity {
		t.Error("multiplicity bit set without the capability")
	}
	w.EnableMultiplicityDetection()
	snap, _ = w.Snapshot(0)
	if !snap.Multiplicity {
		t.Error("robot on a multiplicity did not see the bit")
	}
	snap, _ = w.Snapshot(2)
	if snap.Multiplicity {
		t.Error("solo robot saw a multiplicity bit (detection must be local)")
	}
}

func TestMoveRobotExclusivity(t *testing.T) {
	w := FromConfig(config.MustNew(6, 0, 1), true)
	if _, err := w.MoveRobot(0, ring.CW); err == nil {
		t.Fatal("move onto occupied node succeeded in exclusive world")
	} else {
		var ce *CollisionError
		if !errors.As(err, &ce) {
			t.Fatalf("error type %T, want CollisionError", err)
		}
	}
	ev, err := w.MoveRobot(0, ring.CCW)
	if err != nil {
		t.Fatal(err)
	}
	if ev.From != 0 || ev.To != 5 {
		t.Errorf("event %+v", ev)
	}
	if w.Position(0) != 5 || w.CountAt(0) != 0 || w.CountAt(5) != 1 {
		t.Error("world state wrong after move")
	}
}

func TestMoveRobotMerge(t *testing.T) {
	w, _ := NewWorld(6, []int{0, 1}, false)
	if _, err := w.MoveRobot(0, ring.CW); err != nil {
		t.Fatalf("merge move failed in non-exclusive world: %v", err)
	}
	if w.CountAt(1) != 2 {
		t.Error("merge did not stack robots")
	}
	if !w.Gathered() {
		t.Error("Gathered() false after merge of all robots")
	}
}

func TestCloneIndependence(t *testing.T) {
	w := FromConfig(config.MustNew(6, 0, 2), true)
	cl := w.Clone()
	if _, err := cl.MoveRobot(0, ring.CCW); err != nil {
		t.Fatal(err)
	}
	if w.Position(0) != 0 {
		t.Error("clone shares state with original")
	}
	if w.StateKey() == cl.StateKey() {
		t.Error("state keys should differ after clone moved")
	}
}

func TestRunnerApproachTwoRobots(t *testing.T) {
	w := FromConfig(config.MustNew(10, 0, 4), true)
	r := NewRunner(w, approach)
	reason, err := r.RunUntil(nil, 200)
	if err != nil {
		t.Fatal(err)
	}
	if reason != StopQuiescent {
		t.Fatalf("stop reason %v, want quiescent", reason)
	}
	c := w.Config()
	g := c.Intervals()
	if g[0] != 0 && g[1] != 0 {
		t.Fatalf("robots not adjacent at quiescence: %v", c)
	}
}

func TestRunnerStopCondition(t *testing.T) {
	w := FromConfig(config.MustNew(10, 0, 4), true)
	r := NewRunner(w, approach)
	calls := 0
	reason, err := r.RunUntil(func(w *World) bool {
		calls++
		return w.Config().Intervals()[0] <= 1 || w.Config().Intervals()[1] <= 1
	}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if reason != StopCondition {
		t.Fatalf("stop reason %v", reason)
	}
	if calls == 0 {
		t.Fatal("stop predicate never evaluated")
	}
}

func TestRunnerBudget(t *testing.T) {
	w := FromConfig(config.MustNew(12, 0, 6), true) // symmetric: approach walks forever
	r := NewRunner(w, AlgorithmFunc{Label: "wander", Fn: func(s Snapshot) Decision {
		if s.Symmetric() {
			return Either
		}
		return TowardHi // widen the small gap, then keep walking
	}})
	reason, err := r.RunUntil(nil, 57)
	if err != nil {
		t.Fatal(err)
	}
	if reason != StopBudget {
		t.Fatalf("stop reason %v, want budget", reason)
	}
	if r.Steps() != 57 {
		t.Fatalf("steps = %d, want 57", r.Steps())
	}
}

func TestRunnerCollisionSurfaces(t *testing.T) {
	w := FromConfig(config.MustNew(8, 0, 3), true)
	r := NewRunner(w, crash)
	_, err := r.RunUntil(nil, 100)
	if err == nil {
		t.Fatal("crash algorithm did not produce a collision error")
	}
	var ce *CollisionError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a CollisionError", err)
	}
}

func TestRunnerObservers(t *testing.T) {
	w := FromConfig(config.MustNew(10, 0, 4), true)
	r := NewRunner(w, approach)
	tr := &TraceRecorder{}
	r.Observe(tr)
	if _, err := r.RunUntil(nil, 200); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != r.Moves() {
		t.Fatalf("trace has %d events, runner counted %d moves", len(tr.Events), r.Moves())
	}
	for _, ev := range tr.Events {
		if !w.Ring().Adjacent(ev.From, ev.To) {
			t.Fatalf("recorded non-adjacent move %+v", ev)
		}
	}
}

func TestMoverSet(t *testing.T) {
	w := FromConfig(config.MustNew(10, 0, 4), true)
	movers := MoverSet(w, approach)
	if len(movers) != 2 {
		t.Fatalf("approach should want to move both robots, got %v", movers)
	}
	if ms := MoverSet(w, idle); len(ms) != 0 {
		t.Fatalf("idle has movers %v", ms)
	}
}

func TestAsyncRunnerMatchesSequentialForSingleMover(t *testing.T) {
	// With a single robot the async and sequential executions must agree
	// on the set of visited nodes regardless of scheduling.
	start := config.MustNew(7, 3)
	seqW := FromConfig(start, true)
	seq := NewRunner(seqW, crash) // one robot: always Either, walks forever
	if _, err := seq.RunUntil(nil, 20); err != nil {
		t.Fatal(err)
	}
	asyncW := FromConfig(start, true)
	as := NewAsyncRunner(asyncW, crash, NewRandomAsync(3, 0.3))
	if _, err := as.RunUntil(nil, 60); err != nil {
		t.Fatal(err)
	}
	if as.Moves() == 0 {
		t.Fatal("async runner executed no moves")
	}
}

func TestAsyncPendingBookkeeping(t *testing.T) {
	w := FromConfig(config.MustNew(9, 0, 4), true)
	script := &Script{Actions: []Action{
		{Kind: ActLookCompute, Robot: 0},
		{Kind: ActLookCompute, Robot: 1},
		{Kind: ActMove, Robot: 1},
		{Kind: ActMove, Robot: 0},
	}}
	r := NewAsyncRunner(w, approach, script)
	if _, err := r.Step(); err != nil { // look 0
		t.Fatal(err)
	}
	if !r.Pending(0) || r.Pending(1) {
		t.Fatal("pending flags wrong after first look")
	}
	if _, err := r.Step(); err != nil { // look 1
		t.Fatal(err)
	}
	if r.PendingCount() != 2 {
		t.Fatalf("pending count %d, want 2", r.PendingCount())
	}
	moved, err := r.Step() // move 1
	if err != nil || !moved {
		t.Fatalf("move 1: moved=%v err=%v", moved, err)
	}
	moved, err = r.Step() // move 0 — uses the stale decision, still legal here
	if err != nil || !moved {
		t.Fatalf("move 0: moved=%v err=%v", moved, err)
	}
	if r.PendingCount() != 0 {
		t.Fatal("pending moves remain after execution")
	}
	if r.Moves() != 2 || r.Steps() != 4 {
		t.Fatalf("moves=%d steps=%d", r.Moves(), r.Steps())
	}
}

func TestAsyncSchedulerMisuseErrors(t *testing.T) {
	w := FromConfig(config.MustNew(9, 0, 4), true)
	bad := &Script{Actions: []Action{{Kind: ActMove, Robot: 0}}}
	r := NewAsyncRunner(w, approach, bad)
	if _, err := r.Step(); err == nil {
		t.Error("moving a robot with no pending move did not error")
	}
	bad2 := &Script{Actions: []Action{
		{Kind: ActLookCompute, Robot: 0},
		{Kind: ActLookCompute, Robot: 0},
	}}
	r2 := NewAsyncRunner(w.Clone(), approach, bad2)
	if _, err := r2.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Step(); err == nil {
		t.Error("looking a robot with a pending move did not error")
	}
}

func TestAsyncStaleMoveCanCollide(t *testing.T) {
	// The adversary demonstrates why exclusivity can break under stale
	// views with a naive algorithm: both robots at distance 2 decide to
	// enter the middle node, then both moves execute.
	w := FromConfig(config.MustNew(8, 0, 2), true)
	script := &Script{
		Actions: []Action{
			{Kind: ActLookCompute, Robot: 0},
			{Kind: ActLookCompute, Robot: 1},
			{Kind: ActMove, Robot: 0},
			{Kind: ActMove, Robot: 1},
		},
		Either: []ring.Direction{ring.CW, ring.CCW},
	}
	r := NewAsyncRunner(w, AlgorithmFunc{Label: "greedy", Fn: func(s Snapshot) Decision {
		if s.Lo[0] == 0 {
			return Stay
		}
		if s.Symmetric() {
			return Either
		}
		return TowardLo
	}}, script)
	var err error
	for i := 0; i < 4 && err == nil; i++ {
		_, err = r.Step()
	}
	if err == nil {
		t.Fatal("expected a collision under the adversarial schedule")
	}
	var ce *CollisionError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a CollisionError", err)
	}
}

func TestCycleDetector(t *testing.T) {
	d := NewCycleDetector()
	keys := []string{"a", "b", "c", "d", "b"}
	var closedAt int = -1
	for i, k := range keys {
		if d.Offer(k) && closedAt < 0 {
			closedAt = i
		}
	}
	if closedAt != 4 {
		t.Fatalf("cycle closed at %d, want 4", closedAt)
	}
	if d.Start != 1 || d.Len != 3 {
		t.Fatalf("cycle start=%d len=%d, want 1,3", d.Start, d.Len)
	}
	if !d.Detected() {
		t.Fatal("Detected() false after detection")
	}
	// Further offers keep reporting true without changing the result.
	if !d.Offer("zzz") || d.Len != 3 {
		t.Fatal("detector unstable after detection")
	}
}

func TestTraceRecorderCap(t *testing.T) {
	tr := &TraceRecorder{Cap: 2}
	w := FromConfig(config.MustNew(9, 0, 4), true)
	for i := 0; i < 5; i++ {
		tr.ObserveMove(MoveEvent{Robot: 0, From: i, To: i + 1}, w)
	}
	if len(tr.Events) != 2 || tr.Dropped() != 3 {
		t.Fatalf("events=%d dropped=%d", len(tr.Events), tr.Dropped())
	}
	if tr.String() == "" {
		t.Error("empty trace string")
	}
}

func TestDecisionStrings(t *testing.T) {
	for d, want := range map[Decision]string{Stay: "stay", TowardLo: "toward-lo", TowardHi: "toward-hi", Either: "either"} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", int(d), d.String())
		}
	}
	if Stay.Moving() || !Either.Moving() {
		t.Error("Moving() misclassifies")
	}
	if ActLookCompute.String() != "look" || ActMove.String() != "move" {
		t.Error("action kind strings wrong")
	}
}
