package feasibility

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// solvePruneMode runs a fresh single-worker solver with the pruning
// layer on or off (and optional extra tuning).
func solvePruneMode(t *testing.T, n, k int, noPrune bool, tune func(*Solver)) Result {
	t.Helper()
	s := NewSolver(n, k)
	s.Workers = 1
	s.NoPrune = noPrune
	if tune != nil {
		tune(s)
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatalf("(k=%d,n=%d) noPrune=%v: %v", k, n, noPrune, err)
	}
	return res
}

// checkPruneAgrees enforces the differential contract between the
// pruned search and the NoPrune oracle: identical verdicts and tiers,
// matching survivor existence, and every reported survivor valid under
// re-analysis in *both* modes. The explored tree differs by design —
// pruning exists to shrink it — so TablesExplored is not compared; the
// prune mode additionally must report no pruning work when disabled.
func checkPruneAgrees(t *testing.T, n, k int, tune func(*Solver)) (pruned, oracle Result) {
	t.Helper()
	pruned = solvePruneMode(t, n, k, false, tune)
	oracle = solvePruneMode(t, n, k, true, tune)
	if pruned.Impossible != oracle.Impossible {
		t.Errorf("(k=%d,n=%d): verdict differs: pruned %v, NoPrune %v", k, n, pruned.Impossible, oracle.Impossible)
	}
	if pruned.Tier != oracle.Tier {
		t.Errorf("(k=%d,n=%d): tier differs: pruned %d, NoPrune %d", k, n, pruned.Tier, oracle.Tier)
	}
	if (pruned.SurvivorTable == nil) != (oracle.SurvivorTable == nil) {
		t.Errorf("(k=%d,n=%d): survivor existence differs between modes", k, n)
	}
	if oracle.BranchesDominated != 0 {
		t.Errorf("(k=%d,n=%d): NoPrune mode reports pruning work (%d dominated)", k, n, oracle.BranchesDominated)
	}
	for _, res := range []Result{pruned, oracle} {
		if res.SurvivorTable == nil {
			continue
		}
		for _, np := range []bool{false, true} {
			mk := NewSolver(n, k)
			if tune != nil {
				tune(mk)
			}
			mk.NoPrune = np
			if !survivorHoldsMode(mk, res.Tier, res.SurvivorTable) {
				t.Errorf("(k=%d,n=%d): survivor table fails re-analysis with noPrune=%v", k, n, np)
			}
		}
	}
	return pruned, oracle
}

// TestPruneMatchesNoPruneSmall runs the differential contract on every
// small paper-adjacent case, covering impossibility and
// bounded-adversary-survivor outcomes at both tiers.
func TestPruneMatchesNoPruneSmall(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{3, 1}, {4, 1}, {5, 1}, {3, 2}, {4, 2}, {5, 2}, {6, 2},
		{5, 3}, {6, 3}, {7, 3}, {5, 4}, {6, 4}, {6, 5}, {7, 4},
		{7, 5}, {7, 6}, {8, 4}, {8, 5}, {9, 6},
	} {
		checkPruneAgrees(t, tc.n, tc.k, nil)
	}
}

// TestPruneMatchesNoPruneRandomized fuzzes the contract over random
// (k, n) instances with randomized adversary strength and all quotient/
// incremental mode combinations, so pruning is exercised on quotiented
// and verbatim graphs, fresh and snapshot-reusing branches, crippled
// adversaries and odd tier ladders alike.
func TestPruneMatchesNoPruneRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(6) // 3..8
		k := 1 + rng.Intn(n-1)
		cycleLen := []int{2, 6, 12, 24}[rng.Intn(4)]
		tiers := [][]int{{0}, {0, 1}, {0, 2}}[rng.Intn(3)]
		noQuotient := rng.Intn(2) == 1
		noIncremental := rng.Intn(2) == 1
		checkPruneAgrees(t, n, k, func(s *Solver) {
			s.MaxCycleLen = cycleLen
			s.PendingTiers = tiers
			s.NoQuotient = noQuotient
			s.NoIncremental = noIncremental
		})
	}
}

// TestPruneMatchesNoPruneTheorem5 is the acceptance check of the
// pruning layer: the differential contract on all six Theorem 5
// figures, the (5,8) tree-size target (≤ 250 explored tables in
// quotient mode, from 552 unpruned), and a sanity floor on the (4,9)
// collapse (the refutation-guided order takes it from ≈ 146 k unpruned
// tables to under a few hundred).
func TestPruneMatchesNoPruneTheorem5(t *testing.T) {
	if testing.Short() {
		t.Skip("deep differential game searches skipped in -short mode")
	}
	for _, f := range PaperFigures() {
		t0 := time.Now()
		pruned, oracle := checkPruneAgrees(t, f.N, f.K, nil)
		t.Logf("Figure %d (k=%d,n=%d): impossible=%v tier=%d; tables pruned=%d unpruned=%d (%.1fx), dominated=%d, in %v",
			f.Figure, f.K, f.N, pruned.Impossible, pruned.Tier,
			pruned.TablesExplored, oracle.TablesExplored,
			float64(oracle.TablesExplored)/float64(pruned.TablesExplored),
			pruned.BranchesDominated,
			time.Since(t0).Round(time.Millisecond))
		switch {
		case f.K == 5 && f.N == 8:
			if pruned.TablesExplored > 250 {
				t.Errorf("(5,8): pruned search explored %d tables, acceptance ceiling is 250", pruned.TablesExplored)
			}
			if pruned.BranchesDominated == 0 {
				t.Errorf("(5,8): dominance probe never fired")
			}
		case f.K == 4 && f.N == 9:
			if pruned.TablesExplored > 1000 {
				t.Errorf("(4,9): pruned search explored %d tables, expected the ordering to collapse it below 1000", pruned.TablesExplored)
			}
		}
	}
}

// TestPruneWallClock58 pins the (5,8) wall-clock direction: the pruned
// solve must be at least 1.25× faster than the NoPrune oracle. The
// steady-state benchmarks measure ≈ 2× (the acceptance evidence lives
// in the committed BENCH_*.json rows); the deliberately loose bound
// here only guards against the pruning layer regressing into a net
// loss, with margin for throttled or contended runners. Single 1 ms
// solves swing wildly, so whole batches are timed and the best of
// three rounds compared — cold-start and interference noise only ever
// slows a batch down, and the ratio cancels machine speed.
func TestPruneWallClock58(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison skipped in -short mode")
	}
	batch := func(noPrune bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 3; round++ {
			t0 := time.Now()
			for i := 0; i < 30; i++ {
				s := NewSolver(8, 5)
				s.Workers = 1
				s.NoPrune = noPrune
				if _, err := s.Solve(); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	pruned, unpruned := batch(false), batch(true)
	t.Logf("(5,8) best 30-solve batch: pruned=%v unpruned=%v (%.2fx)", pruned, unpruned, float64(unpruned)/float64(pruned))
	if pruned*5 > unpruned*4 {
		t.Errorf("(5,8): pruned solve %v not ≥1.25x faster than unpruned %v", pruned, unpruned)
	}
}

// TestPruneDeterministicAcrossWorkers checks that the shared pruning
// state — refutation credits mutate concurrently under the worker
// pool — never makes the *verdict* schedule-dependent:
// verdicts, tiers and survivor existence are identical for every worker
// count, reported survivors hold under re-analysis in the solver's own
// (quotient) mode, and the single-worker search stays bit-reproducible
// including the new counters. (The tree shape and counter values under a
// parallel search are schedule-dependent, exactly like TablesExplored
// always was.) Survivors are not re-checked under raw semantics: the
// quotient lasso hunt can miss a raw win whose projection is a
// non-simple quotient walk, so a quotient-mode survivor is only promised
// to survive the quotient analysis.
func TestPruneDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct{ n, k int }{
		{5, 1}, {6, 2}, {7, 3}, {5, 4}, {6, 4}, {7, 4}, {8, 4}, {8, 5}, {9, 6},
	}
	if !testing.Short() {
		cases = append(cases, struct{ n, k int }{9, 4}, struct{ n, k int }{9, 5})
	}
	parallel := 4
	if p := runtime.GOMAXPROCS(0); p > parallel {
		parallel = p
	}
	for _, tc := range cases {
		seq := solveWorkers(t, tc.n, tc.k, 1)
		seq2 := solveWorkers(t, tc.n, tc.k, 1)
		par := solveWorkers(t, tc.n, tc.k, parallel)
		if seq.Impossible != seq2.Impossible || seq.Tier != seq2.Tier ||
			seq.TablesExplored != seq2.TablesExplored ||
			seq.BranchesDominated != seq2.BranchesDominated {
			t.Errorf("(k=%d,n=%d): sequential pruned runs disagree: %+v vs %+v", tc.k, tc.n, seq, seq2)
		}
		if par.Impossible != seq.Impossible || par.Tier != seq.Tier {
			t.Errorf("(k=%d,n=%d): verdict/tier differs across worker counts under shared pruning state",
				tc.k, tc.n)
		}
		if (seq.SurvivorTable == nil) != (par.SurvivorTable == nil) {
			t.Errorf("(k=%d,n=%d): survivor existence differs across worker counts", tc.k, tc.n)
		}
		for _, res := range []Result{seq, par} {
			if res.SurvivorTable != nil && !survivorHoldsMode(NewSolver(tc.n, tc.k), res.Tier, res.SurvivorTable) {
				t.Errorf("(k=%d,n=%d): reported survivor table does not survive re-analysis", tc.k, tc.n)
			}
		}
	}
}
