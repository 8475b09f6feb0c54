package feasibility

import (
	"errors"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"
)

// solveIncMode runs a fresh single-worker solver with incremental
// re-analysis on or off (and optional extra tuning).
func solveIncMode(t *testing.T, n, k int, noIncremental bool, tune func(*Solver)) Result {
	t.Helper()
	s := NewSolver(n, k)
	s.Workers = 1
	s.NoIncremental = noIncremental
	if tune != nil {
		tune(s)
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatalf("(k=%d,n=%d) noIncremental=%v: %v", k, n, noIncremental, err)
	}
	return res
}

// checkIncrementalAgrees enforces the differential contract between the
// incremental searcher and the full-reanalysis oracle. Incremental
// re-analysis is designed to reproduce every branch's outputs exactly,
// so with one worker the contract is much stronger than the quotient's:
// besides verdict, tier and survivor validity, the explored tree shape
// (TablesExplored) and the per-branch graph sizes (StatesInterned) must
// be identical, while the expansion work actually performed
// (StatesReexpanded) must not exceed the oracle's.
func checkIncrementalAgrees(t *testing.T, n, k int, tune func(*Solver)) (inc, oracle Result) {
	t.Helper()
	inc = solveIncMode(t, n, k, false, tune)
	oracle = solveIncMode(t, n, k, true, tune)
	if inc.Impossible != oracle.Impossible {
		t.Errorf("(k=%d,n=%d): verdict differs: incremental %v, full %v", k, n, inc.Impossible, oracle.Impossible)
	}
	if inc.Tier != oracle.Tier {
		t.Errorf("(k=%d,n=%d): tier differs: incremental %d, full %d", k, n, inc.Tier, oracle.Tier)
	}
	if inc.TablesExplored != oracle.TablesExplored {
		t.Errorf("(k=%d,n=%d): tree shape differs: incremental explored %d tables, full %d",
			k, n, inc.TablesExplored, oracle.TablesExplored)
	}
	// StatesInterned counts each branch's graph at the moment analysis
	// concludes. On branches won by a collision or deadlock found
	// mid-expansion the full BFS stops with a partial graph, while an
	// incremental branch starts from the parent's complete one — so the
	// totals agree only up to those truncated win branches. A 2×
	// envelope still catches structural divergence (leaked or lost
	// frontier states) without tripping on the accounting difference.
	if inc.StatesInterned > 2*oracle.StatesInterned || oracle.StatesInterned > 2*inc.StatesInterned {
		t.Errorf("(k=%d,n=%d): per-branch graphs diverge: incremental interned %d states, full %d",
			k, n, inc.StatesInterned, oracle.StatesInterned)
	}
	if inc.StatesReexpanded > oracle.StatesReexpanded {
		t.Errorf("(k=%d,n=%d): incremental re-expanded more states (%d) than full re-analysis (%d)",
			k, n, inc.StatesReexpanded, oracle.StatesReexpanded)
	}
	if oracle.BranchesReused != 0 {
		t.Errorf("(k=%d,n=%d): full mode reports %d reused branches", k, n, oracle.BranchesReused)
	}
	// Every branch except each tier's root must have been reused (the
	// tier ladders in this suite have at most two rungs).
	if inc.BranchesReused < int64(inc.TablesExplored)-2 || inc.BranchesReused >= int64(inc.TablesExplored) {
		t.Errorf("(k=%d,n=%d): expected every non-root branch reused, got %d of %d tables",
			k, n, inc.BranchesReused, inc.TablesExplored)
	}
	if (inc.SurvivorTable == nil) != (oracle.SurvivorTable == nil) {
		t.Errorf("(k=%d,n=%d): survivor existence differs between modes", k, n)
	}
	for _, res := range []Result{inc, oracle} {
		if res.SurvivorTable == nil {
			continue
		}
		for _, noInc := range []bool{false, true} {
			mk := NewSolver(n, k)
			if tune != nil {
				tune(mk)
			}
			mk.NoIncremental = noInc
			if !survivorHoldsMode(mk, res.Tier, res.SurvivorTable) {
				t.Errorf("(k=%d,n=%d): survivor table fails re-analysis with noIncremental=%v", k, n, noInc)
			}
		}
	}
	return inc, oracle
}

// TestIncrementalMatchesFullSmall runs the differential contract on
// every small paper-adjacent case, covering impossibility and
// bounded-adversary-survivor outcomes at both tiers.
func TestIncrementalMatchesFullSmall(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{3, 1}, {4, 1}, {5, 1}, {3, 2}, {4, 2}, {5, 2}, {6, 2},
		{5, 3}, {6, 3}, {7, 3}, {5, 4}, {6, 4}, {6, 5}, {7, 4},
		{7, 5}, {7, 6}, {8, 4}, {8, 5}, {9, 6},
	} {
		checkIncrementalAgrees(t, tc.n, tc.k, nil)
	}
}

// TestIncrementalMatchesFullRandomized fuzzes the contract over random
// (k, n) instances with randomized adversary strength and both quotient
// modes, so incremental reuse is exercised on quotiented and verbatim
// graphs, crippled adversaries and odd tier ladders alike.
func TestIncrementalMatchesFullRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(6) // 3..8
		k := 1 + rng.Intn(n-1)
		cycleLen := []int{1, 6, 12, 24}[rng.Intn(4)]
		tiers := [][]int{{0}, {0, 1}, {0, 2}}[rng.Intn(3)]
		noQuotient := rng.Intn(2) == 1
		checkIncrementalAgrees(t, n, k, func(s *Solver) {
			s.MaxCycleLen = cycleLen
			s.PendingTiers = tiers
			s.NoQuotient = noQuotient
		})
	}
}

// TestIncrementalMatchesFullTheorem5 is the acceptance check of
// incremental re-analysis: the exact differential contract on all six
// Theorem 5 figures, plus reuse-compression floors. Measured on the
// reference container: (4,9) re-expands 9.7× fewer states than full
// re-analysis, (5,9) 5.7×, (5,8) 4.3× — the floors below leave noise
// margin. (5,8) sits lower because its per-branch graphs are tiny
// (≈ 4 states on average, most branches die on an early collision), so
// the irreducible dirty-state work dominates; the headline acceptance
// case is the (3,20) impossibility drain, which used to exhaust the
// default 250M-expansion budget and now completes with a verdict (see
// TestLongRunWideRingIncremental).
func TestIncrementalMatchesFullTheorem5(t *testing.T) {
	if testing.Short() {
		t.Skip("deep differential game searches skipped in -short mode")
	}
	for _, f := range PaperFigures() {
		t0 := time.Now()
		inc, oracle := checkIncrementalAgrees(t, f.N, f.K, nil)
		t.Logf("Figure %d (k=%d,n=%d): impossible=%v tier=%d; reexpanded incremental=%d full=%d (%.1fx) in %v",
			f.Figure, f.K, f.N, inc.Impossible, inc.Tier,
			inc.StatesReexpanded, oracle.StatesReexpanded,
			float64(oracle.StatesReexpanded)/float64(inc.StatesReexpanded),
			time.Since(t0).Round(time.Millisecond))
		floor := int64(0)
		switch {
		case f.K == 4 && f.N == 9:
			floor = 5
		case f.K == 5 && f.N == 8:
			floor = 3
		}
		if floor > 0 && inc.StatesReexpanded*floor > oracle.StatesReexpanded {
			t.Errorf("(%d,%d): reuse compression below %dx: incremental re-expanded %d, full %d",
				f.K, f.N, floor, inc.StatesReexpanded, oracle.StatesReexpanded)
		}
	}
}

// TestLongRunWideRingIncremental is the opt-in probe of the wide k = 3
// drains — the cases where k = 3 on a wide ring multiplies table
// branches, not state orbits. Incremental sibling-branch reuse (PR 4)
// cut the charged budget to ≈ 4.8 units/branch; the tree-level pruning
// layer (prune.go) attacks the branch count itself, so the probe now
// reports the memo/dominance counters alongside the reuse ones — the
// evidence for how much of a drain's tree pruning removes at a given
// budget. (3,19)/(3,20) remain wall-clock-bound under default budgets;
// (3,18) and (3,21) complete immediately. The probe reports whatever it
// reaches and fails only on unexpected errors.
//
// The (3,20) row runs a bounded 10M-unit probe so the test fits go
// test's default 10-minute timeout; a full-budget drain needs
// -timeout 0 and the patience for a multi-hour wall-clock run. The
// scheduled CI probe (.github/workflows/wideprobe.yml) sets T5BUDGET to
// cap every row's budget (and adds the (3,19) row), so the weekly
// artifact records counter trajectories at a fixed, affordable cost.
//
//	T5LONG=1 go test ./internal/feasibility -run TestLongRunWideRingIncremental -v
//	T5LONG=1 T5BUDGET=2000000 go test ./internal/feasibility -run TestLongRunWideRingIncremental -v
func TestLongRunWideRingIncremental(t *testing.T) {
	if os.Getenv("T5LONG") == "" {
		t.Skip("set T5LONG=1 to run the wide-ring k=3 drains with timing")
	}
	override := 0
	if v := os.Getenv("T5BUDGET"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			override = parsed
		}
	}
	cases := []struct{ n, budget int }{{18, 0}, {21, 0}, {20, 10_000_000}}
	if override > 0 {
		cases = append(cases, struct{ n, budget int }{19, 0})
	}
	for _, tc := range cases {
		t0 := time.Now()
		s := NewSolver(tc.n, 3)
		if tc.budget > 0 {
			s.MaxExpansions = tc.budget
		}
		if override > 0 {
			s.MaxExpansions = override
		}
		res, err := s.Solve()
		t.Logf("(3,%d): impossible=%v tier=%d tables=%d reused=%d reexpanded=%d dominated=%d err=%v elapsed=%v",
			tc.n, res.Impossible, res.Tier, res.TablesExplored, res.BranchesReused,
			res.StatesReexpanded, res.BranchesDominated,
			err, time.Since(t0).Round(time.Millisecond))
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatalf("(3,%d): unexpected error: %v", tc.n, err)
		}
	}
}

// TestCollisionOrderOutputEquality pins the collision-likelihood
// re-expansion order (pending executions first) to the exact same
// outputs as the discovery-order fallback: a win is a win whichever
// dirty state trips it, and on non-winning branches every dirty state
// is re-expanded regardless of order, so verdict, tier, the explored
// tree and survivor existence must all be identical — only
// StatesReexpanded may differ (the point of the heuristic is stopping
// win-by-collision branches sooner). Covers the pending tiers, where
// the ordering actually reorders something (at tier 0 no state holds a
// pending move and the heuristic is a provable no-op).
func TestCollisionOrderOutputEquality(t *testing.T) {
	cases := []struct{ n, k int }{{7, 4}, {8, 5}, {7, 3}, {6, 4}}
	if !testing.Short() {
		cases = append(cases, struct{ n, k int }{9, 5})
	}
	for _, tc := range cases {
		ordered := solveIncMode(t, tc.n, tc.k, false, nil)
		discovery := solveIncMode(t, tc.n, tc.k, false, func(s *Solver) { s.noCollisionOrder = true })
		if ordered.Impossible != discovery.Impossible || ordered.Tier != discovery.Tier {
			t.Errorf("(k=%d,n=%d): verdict/tier differs between re-expansion orders", tc.k, tc.n)
		}
		if ordered.TablesExplored != discovery.TablesExplored {
			t.Errorf("(k=%d,n=%d): tree shape differs: collision-order explored %d tables, discovery-order %d",
				tc.k, tc.n, ordered.TablesExplored, discovery.TablesExplored)
		}
		if (ordered.SurvivorTable == nil) != (discovery.SurvivorTable == nil) {
			t.Errorf("(k=%d,n=%d): survivor existence differs between re-expansion orders", tc.k, tc.n)
		}
		if tc.k == 5 && tc.n == 9 {
			t.Logf("(5,9): reexpanded collision-order=%d discovery-order=%d",
				ordered.StatesReexpanded, discovery.StatesReexpanded)
		}
	}
}

// --- intern table -------------------------------------------------------------

// TestInternTableMatchesMap drives random interleaved inserts, lookups
// and epoch resets against a map oracle.
func TestInternTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tab internTable
	oracle := map[state]int32{}
	next := int32(0)
	for step := 0; step < 200_000; step++ {
		switch rng.Intn(20) {
		case 0: // branch reset
			tab.reset()
			clear(oracle)
			next = 0
		default:
			s := randomState(rng, 3+rng.Intn(30), 1+rng.Intn(3))
			if rng.Intn(2) == 0 {
				id, ok := tab.lookup(s)
				oid, ook := oracle[s]
				if ok != ook || (ok && id != oid) {
					t.Fatalf("step %d: lookup(%+v) = (%d,%v), oracle (%d,%v)", step, s, id, ok, oid, ook)
				}
			} else {
				id, existed := tab.getOrPut(s, next)
				oid, oexisted := oracle[s]
				if !oexisted {
					oracle[s] = next
					oid = next
					next++
				}
				if existed != oexisted || id != oid {
					t.Fatalf("step %d: getOrPut(%+v) = (%d,%v), oracle (%d,%v)", step, s, id, existed, oid, oexisted)
				}
			}
		}
	}
}

// TestInternTableAdopt checks that an adopted image answers exactly like
// its source and then diverges independently.
func TestInternTableAdopt(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var src internTable
	states := make([]state, 0, 5000)
	for i := 0; i < 5000; i++ {
		s := randomState(rng, 32, 1+rng.Intn(4))
		if _, existed := src.getOrPut(s, int32(len(states))); !existed {
			states = append(states, s)
		}
	}
	var dst internTable
	dst.adoptFrom(&src)
	for id, s := range states {
		got, ok := dst.lookup(s)
		if !ok || got != int32(id) {
			t.Fatalf("adopted table lost state %d: got (%d,%v)", id, got, ok)
		}
	}
	// Divergence: inserts into the copy must not touch the source.
	extra := randomState(rng, 31, 5)
	if _, existed := dst.getOrPut(extra, int32(len(states))); existed {
		t.Skip("random extra state collided with the fixture; seed needs changing")
	}
	if _, ok := src.lookup(extra); ok {
		t.Fatal("insert into adopted copy leaked into the source")
	}
	dst.reset()
	if _, ok := dst.lookup(states[0]); ok {
		t.Fatal("epoch reset did not invalidate adopted entries")
	}
	if _, ok := src.lookup(states[0]); !ok {
		t.Fatal("resetting the copy invalidated the source")
	}
}

// TestInternTableResetIsConstantTime pins the PR's O(1)-reset claim
// behaviorally: a large-capacity table must absorb a hundred thousand
// reset+insert cycles in wall-clock time that a capacity-proportional
// clear (the former clear(map), ~10^11 slot writes here) could not
// reach even on generous hardware. The bound is ~1000× above the
// epoch-stamped cost, so the test is timing-robust.
func TestInternTableResetIsConstantTime(t *testing.T) {
	var tab internTable
	rng := rand.New(rand.NewSource(44))
	for i := 0; int32(i) < 3*int32(internTableMinSize); i++ { // force growth well past the minimum
		tab.getOrPut(randomState(rng, 32, 8), int32(i))
	}
	for len(tab.keys) < 1<<20 {
		tab.grow()
	}
	probe := randomState(rng, 30, 3)
	t0 := time.Now()
	const resets = 100_000
	for i := 0; i < resets; i++ {
		tab.reset()
		if id, _ := tab.getOrPut(probe, 0); id != 0 {
			t.Fatalf("reset %d: probe state survived the epoch bump with id %d", i, id)
		}
	}
	if elapsed := time.Since(t0); elapsed > 20*time.Second {
		t.Errorf("%d resets of a %d-slot table took %v: reset cost appears to scale with capacity",
			resets, len(tab.keys), elapsed)
	}
}
