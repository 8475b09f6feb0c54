package gather

import (
	"math/rand"
	"testing"

	"ringrobots/internal/config"
	"ringrobots/internal/corda"
	"ringrobots/internal/enumerate"
)

func TestValidate(t *testing.T) {
	if err := Validate(10, 2); err == nil {
		t.Error("accepted k=2")
	}
	if err := Validate(7, 5); err == nil {
		t.Error("accepted n=k+2")
	}
	if err := Validate(6, 5); err == nil {
		t.Error("accepted n=k+1")
	}
	if err := Validate(8, 5); err != nil {
		t.Errorf("rejected valid (k=5, n=8): %v", err)
	}
	if err := Validate(6, 3); err != nil {
		t.Errorf("rejected valid (k=3, n=6): %v", err)
	}
}

func TestNewWorldRejectsNonRigid(t *testing.T) {
	sym := config.MustNew(10, 0, 1, 3, 7, 9)
	if _, err := NewWorld(sym); err == nil {
		t.Error("accepted symmetric start")
	}
	if _, err := NewWorld(config.MustNew(10, 0, 5)); err == nil {
		t.Error("accepted k=2")
	}
}

func TestContractionFromCStar(t *testing.T) {
	// From C*(10,5) the contraction collapses {0,1,2,3,5} step by step:
	// after each full contraction the configuration stays C*-type with
	// one fewer occupied node.
	c, err := config.CStar(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(c)
	if err != nil {
		t.Fatal(err)
	}
	r := corda.NewRunner(w, Gathering{})
	seenJ := map[int]bool{5: true}
	for step := 0; step < 4000 && !w.Gathered(); step++ {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		cfg := w.Config()
		if cfg.K() >= 3 {
			if ok, j := cfg.IsCStarType(); !ok {
				t.Fatalf("intermediate %v not C*-type", cfg)
			} else {
				seenJ[j] = true
			}
		}
	}
	if !w.Gathered() {
		t.Fatal("did not gather")
	}
	for j := 3; j <= 5; j++ {
		if !seenJ[j] {
			t.Errorf("contraction skipped j=%d", j)
		}
	}
	// All robots on one node, and that node holds all k robots.
	if w.CountAt(w.Position(0)) != 5 {
		t.Errorf("gathered node holds %d robots", w.CountAt(w.Position(0)))
	}
}

func TestTheorem8Exhaustive(t *testing.T) {
	// E7: gathering succeeds from every rigid configuration with
	// 2 < k < n−2, n ≤ 12.
	total := 0
	for n := 6; n <= 11; n++ {
		for k := 3; k < n-2; k++ {
			classes, err := enumerate.RigidClasses(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range classes {
				w, err := NewWorld(c)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Run(w, 100*n*n); err != nil {
					t.Fatalf("n=%d k=%d from %v: %v", n, k, c, err)
				}
				total++
			}
		}
	}
	if total < 100 {
		t.Fatalf("exhaustive space suspiciously small: %d", total)
	}
	t.Logf("gathered from %d rigid configurations", total)
}

func TestTheorem8LargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{20, 50, 100} {
		for trial := 0; trial < 3; trial++ {
			// Cap k: the per-Look cost grows with k² and the largest rings
			// are exercised for their n, not their k.
			k := 3 + rng.Intn(10)
			c, err := enumerate.RandomRigid(rng, n, k, 10000)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorld(c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(w, 200*n*n); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
		}
	}
}

func TestGatheringUnderAsyncAdversary(t *testing.T) {
	// Gathering must survive arbitrary asynchrony: pending moves held
	// across other robots' full cycles, stale snapshots in the
	// contraction pile, adversarial Either resolution.
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 15; trial++ {
		n := 7 + rng.Intn(8)
		k := 3 + rng.Intn(n-6)
		c, err := enumerate.RandomRigid(rng, n, k, 5000)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(c)
		if err != nil {
			t.Fatal(err)
		}
		as := corda.NewAsyncRunner(w, Gathering{}, corda.NewRandomAsync(int64(trial*7+1), 0.35))
		reason, err := as.RunUntil((*corda.World).Gathered, 3000*n)
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d from %v): %v", trial, n, k, c, err)
		}
		if reason != corda.StopCondition {
			t.Fatalf("trial %d: stopped %v before gathering (world %v, pending %d)",
				trial, reason, w, as.PendingCount())
		}
	}
}

func TestGatheredStateIsStable(t *testing.T) {
	// Once gathered, nobody ever moves again (the task demands the robots
	// remain on the node).
	w, err := corda.NewWorld(9, []int{4, 4, 4, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	w.EnableMultiplicityDetection()
	movers := corda.MoverSet(w, Gathering{})
	if len(movers) != 0 {
		t.Fatalf("robots %v want to move after gathering", movers)
	}
}

func TestFinalPhaseSingleRobotWalks(t *testing.T) {
	// Two occupied nodes: multiplicity of 3 at node 0, singleton at 4.
	// Only the singleton moves, and it walks the short way.
	w, err := corda.NewWorld(10, []int{0, 0, 0, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	w.EnableMultiplicityDetection()
	movers := corda.MoverSet(w, Gathering{})
	if len(movers) != 1 || w.Position(movers[0]) != 4 {
		t.Fatalf("movers = %v, want only the singleton at node 4", movers)
	}
	r := corda.NewRunner(w, Gathering{})
	if _, err := r.RunUntil((*corda.World).Gathered, 500); err != nil {
		t.Fatal(err)
	}
	if !w.Gathered() || w.Position(0) != 0 {
		t.Fatalf("gathering finished at %v, want everyone at node 0", w)
	}
	// The singleton walked 4→3→2→1→0: exactly 4 moves.
	if r.Moves() != 4 {
		t.Errorf("final phase took %d moves, want 4", r.Moves())
	}
}

func TestMultiplicityStragglersCatchUp(t *testing.T) {
	// Async scenario engineered at the contraction pile: several robots
	// share the anchor node; some execute late. Their stale decisions must
	// still be correct.
	c, err := config.CStar(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(c)
	if err != nil {
		t.Fatal(err)
	}
	// Robot ids follow node order: C*(9,4) occupies {0,1,2,4}; robot 0 is
	// the anchor mover. Let it look, hold the move, let everyone else
	// cycle (they all stay), then release.
	as := corda.NewAsyncRunner(w, Gathering{}, &corda.Script{Actions: []corda.Action{
		{Kind: corda.ActLookCompute, Robot: 0},
		{Kind: corda.ActLookCompute, Robot: 1},
		{Kind: corda.ActLookCompute, Robot: 2},
		{Kind: corda.ActLookCompute, Robot: 3},
		{Kind: corda.ActMove, Robot: 0},
	}})
	for i := 0; i < 5; i++ {
		if _, err := as.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cfg := w.Config()
	if ok, j := cfg.IsCStarType(); !ok || j != 3 {
		t.Fatalf("after delayed contraction: %v (type=%v, j=%d)", cfg, ok, j)
	}
}
