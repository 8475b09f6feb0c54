package mcsim

import (
	"testing"

	"ringrobots/internal/config"
	"ringrobots/internal/corda"
	"ringrobots/internal/core"
	"ringrobots/internal/ring"
	"ringrobots/internal/search"
)

// rigidStart returns a deterministic rigid exclusive configuration:
// a block of k−1 adjacent robots plus one straggler, pushed out until
// the configuration is rigid.
func rigidStart(t testing.TB, n, k int) config.Config {
	t.Helper()
	nodes := make([]int, k)
	for i := 0; i < k-1; i++ {
		nodes[i] = i
	}
	for j := k - 1; j < n; j++ {
		nodes[k-1] = j
		c, err := config.New(n, nodes...)
		if err == nil && c.IsRigid() {
			return c
		}
	}
	t.Fatalf("no rigid start found for n=%d k=%d", n, k)
	return config.Config{}
}

func specFor(t testing.TB, task core.Task, n, k, samples, maxSteps int, seed uint64) corda.SimSpec {
	t.Helper()
	spec, err := SpecFor(task, rigidStart(t, n, k), samples, maxSteps, seed)
	if err != nil {
		t.Fatalf("SpecFor(%v, n=%d, k=%d): %v", task, n, k, err)
	}
	return spec
}

func simulate(t testing.TB, b corda.Backend) corda.SimReport {
	t.Helper()
	rep, err := b.Simulate()
	if err != nil {
		t.Fatalf("%s backend: %v", b.Name(), err)
	}
	return rep
}

// workloads covers all three algorithms: Align+Contraction gathering,
// Ring Clearing, and NminusThree.
func workloads(t testing.TB, samples, maxSteps int, seed uint64) map[string]corda.SimSpec {
	return map[string]corda.SimSpec{
		"gathering-12-5":  specFor(t, core.Gathering, 12, 5, samples, maxSteps, seed),
		"searching-12-6":  specFor(t, core.Searching, 12, 6, samples, maxSteps, seed),
		"searching-13-10": specFor(t, core.Searching, 13, 10, samples, maxSteps, seed),
	}
}

// TestBatchMatchesProofBackend is the tentpole differential: the batch
// engine and the AsyncRunner-driven proof backend must produce
// bit-identical reports on the same spec, for every algorithm family
// and at several worker counts.
func TestBatchMatchesProofBackend(t *testing.T) {
	for name, spec := range workloads(t, 48, 2000, 0xC0FFEE) {
		t.Run(name, func(t *testing.T) {
			proof, err := NewProof(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := simulate(t, proof)
			for _, workers := range []int{1, 3} {
				e, err := New(spec, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got := simulate(t, e); got != want {
					t.Errorf("workers=%d: batch report differs from proof backend\nbatch: %+v\nproof: %+v", workers, got, want)
				}
			}
		})
	}
}

// TestLaneReplayDifferential replays sampled batch lanes move-for-move
// through corda.AsyncRunner under their recorded schedules.
func TestLaneReplayDifferential(t *testing.T) {
	for name, spec := range workloads(t, 24, 1500, 0xFEED) {
		t.Run(name, func(t *testing.T) {
			e, err := New(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Simulate(); err != nil {
				t.Fatal(err)
			}
			for lane := 0; lane < spec.Samples; lane++ {
				if _, err := e.VerifyLane(lane); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWorkerCountDeterminism pins the contract that the report is a
// pure function of the spec: identical at workers = 1, 2 and 8.
func TestWorkerCountDeterminism(t *testing.T) {
	for name, spec := range workloads(t, 256, 4000, 0xDEADBEEF) {
		t.Run(name, func(t *testing.T) {
			var want corda.SimReport
			for i, workers := range []int{1, 2, 8} {
				e, err := New(spec, workers)
				if err != nil {
					t.Fatal(err)
				}
				got := simulate(t, e)
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers=%d report differs from workers=1\ngot:  %+v\nwant: %+v", workers, got, want)
				}
			}
		})
	}
}

// TestGoldenSummary pins the aggregate report for one (n, k, seed)
// triple, so any accidental change to the rng stream, the scheduler
// semantics, or the aggregation is caught as a diff, not a silent
// statistics shift.
func TestGoldenSummary(t *testing.T) {
	spec := specFor(t, core.Gathering, 12, 5, 200, 20000, 12345)
	e, err := New(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := simulate(t, e)
	want := goldenGathering12x5Seed12345
	if got != want {
		t.Errorf("golden summary changed\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestMaskContaminationMatchesOracle drives random non-exclusive walks
// and compares the single-word contamination kernel against package
// search's Contamination tracker edge-for-edge after every move.
func TestMaskContaminationMatchesOracle(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{5, 2}, {9, 4}, {12, 6}, {17, 3}} {
		// Rigidity is irrelevant here: any block-plus-straggler start do.
		nodes := make([]int, tc.k)
		for i := 0; i < tc.k-1; i++ {
			nodes[i] = i
		}
		nodes[tc.k-1] = tc.k + 1
		start, err := config.New(tc.n, nodes...)
		if err != nil {
			t.Fatal(err)
		}
		w := corda.FromConfig(start, false)
		oracle := search.NewContamination(w)
		occ, err := start.OccupancyMask()
		if err != nil {
			t.Fatal(err)
		}
		clear := contInit(occ, tc.n)
		cnt := make([]int, tc.n)
		for _, u := range start.Nodes() {
			cnt[u]++
		}
		check := func(move int) {
			var want uint64
			for e := 0; e < tc.n; e++ {
				if oracle.EdgeClear(ring.Edge(e)) {
					want |= 1 << uint(e)
				}
			}
			if clear != want {
				t.Fatalf("n=%d k=%d move %d: mask kernel %012b, oracle %012b", tc.n, tc.k, move, clear, want)
			}
		}
		check(-1)
		rng := laneSeed(0xABCD, tc.n*64+tc.k)
		for move := 0; move < 400; move++ {
			id := randIndex(nextRand(&rng), tc.k)
			dir := ring.CW
			if nextRand(&rng)&1 == 1 {
				dir = ring.CCW
			}
			ev, err := w.MoveRobot(id, dir)
			if err != nil {
				t.Fatal(err)
			}
			oracle.ObserveMove(ev, w)
			cnt[ev.From]--
			if cnt[ev.From] == 0 {
				occ &^= 1 << uint(ev.From)
			}
			if cnt[ev.To] == 0 {
				occ |= 1 << uint(ev.To)
			}
			cnt[ev.To]++
			clear = contMove(clear, occ, tc.n, ev.From, ev.To)
			check(move)
		}
	}
}

// TestCrossValidationFeasible checks the empirical side of the paper's
// characterization on solvable instances: gathering lanes all reach the
// goal within budget, and searching lanes keep re-entering the
// all-edges-clear state (perpetual clearing).
func TestCrossValidationFeasible(t *testing.T) {
	samples := 200
	if testing.Short() {
		samples = 40
	}
	t.Run("gathering-12-5", func(t *testing.T) {
		spec := specFor(t, core.Gathering, 12, 5, samples, 100000, 2026)
		e, err := New(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep := simulate(t, e)
		if rep.Gathered() != rep.Samples {
			t.Errorf("gathered %d of %d lanes (outcomes %v)", rep.Gathered(), rep.Samples, rep.Outcomes)
		}
		if rep.Outcomes[corda.LaneCollision] != 0 {
			t.Errorf("algorithm caused %d collisions", rep.Outcomes[corda.LaneCollision])
		}
	})
	t.Run("searching-12-6", func(t *testing.T) {
		spec := specFor(t, core.Searching, 12, 6, samples, 20000, 2026)
		e, err := New(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep := simulate(t, e)
		if rep.RecurrentClearLanes != rep.Samples {
			t.Errorf("recurrent clearing in %d of %d lanes (all-clear events %d)", rep.RecurrentClearLanes, rep.Samples, rep.AllClearEvents)
		}
		if rep.Outcomes[corda.LaneCollision] != 0 {
			t.Errorf("algorithm caused %d collisions", rep.Outcomes[corda.LaneCollision])
		}
	})
}

// TestCrossValidationImpossible samples the paper's flagship impossible
// instance — searching with k = 4 on n = 9 (Theorem 5, the verdict the
// feasibility solver certifies) — under many random schedules, running
// Ring Clearing outside its validated range. No sampled schedule may
// exhibit perpetual clearing; empirically not even one transient
// all-clear state occurs. (Gathering's k = 2 impossibility is
// adversarial and is NOT visible under random schedules — two robots
// happily meet by luck — which is exactly why the searching instance is
// the meaningful empirical cross-check.)
func TestCrossValidationImpossible(t *testing.T) {
	samples := 100000
	if testing.Short() {
		samples = 5000
	}
	spec := corda.SimSpec{
		Start:         rigidStart(t, 9, 4),
		Algorithm:     search.RingClearing{},
		Exclusive:     true,
		TrackClearing: true,
		Samples:       samples,
		MaxSteps:      300,
		Seed:          0x94,
	}
	e, err := New(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := simulate(t, e)
	if rep.RecurrentClearLanes != 0 {
		t.Errorf("impossible instance (9,4) showed recurrent clearing in %d of %d lanes", rep.RecurrentClearLanes, rep.Samples)
	}
	if rep.AllClearLanes != 0 {
		t.Errorf("impossible instance (9,4) reached all-clear in %d of %d lanes", rep.AllClearLanes, rep.Samples)
	}
}

// TestSteadyStateZeroAllocs pins the perf contract: once the decision
// cache is warm, re-running a single-worker engine allocates nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for name, spec := range workloads(t, 32, 1500, 7) {
		t.Run(name, func(t *testing.T) {
			e, err := New(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			simulate(t, e) // warm the decision cache
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := e.Simulate(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state Simulate allocated %.1f times per run, want 0", allocs)
			}
		})
	}
}

// goldenGathering12x5Seed12345 is the pinned aggregate for the
// (n=12, k=5, seed=12345) gathering batch — recalibrate only on an
// intentional semantics change.
var goldenGathering12x5Seed12345 = func() corda.SimReport {
	r := corda.SimReport{
		Samples:     200,
		Steps:       12234,
		Moves:       1600,
		GatherSum:   12234,
		CoverageSum: 1200,
	}
	r.Outcomes[corda.LaneGathered] = 200
	r.GatherHist.Buckets[6] = 120 // gather times in [32, 64)
	r.GatherHist.Buckets[7] = 80  // gather times in [64, 128)
	return r
}()

// TestThroughputFloor pins the perf acceptance criterion: the
// single-worker batch engine sustains at least one million scheduler
// ticks per second on (n=12, k=5) gathering. Skipped under -short (the
// race-detector smoke job slows it arbitrarily).
func TestThroughputFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput floor not meaningful under -short / -race")
	}
	spec := specFor(t, core.Gathering, 12, 5, 4096, 100000, 99)
	e, err := New(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	simulate(t, e) // warm the decision cache
	start := nowMono()
	rep := simulate(t, e)
	stepsPerSec := float64(rep.Steps) / sinceMono(start)
	if stepsPerSec < 1e6 {
		t.Errorf("batch engine sustained %.0f steps/sec single-worker, want >= 1e6", stepsPerSec)
	}
	if rep.Gathered() != rep.Samples {
		t.Fatalf("gathered %d of %d lanes", rep.Gathered(), rep.Samples)
	}
	t.Logf("throughput: %.2fM steps/sec single-worker", stepsPerSec/1e6)
}
