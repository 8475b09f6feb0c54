package feasibility

import (
	"math/rand"
	"runtime"
	"testing"

	"ringrobots/internal/ring"
)

// survivorHolds re-analyzes a claimed survivor table under the given
// pending tier and reports whether the adversary indeed has no win
// against it with no observation left undefined. This makes survivor
// checks independent of which branch (and therefore which
// TablesExplored count) produced the table.
func survivorHolds(s *Solver, tier int, tab Table) bool {
	ts := &tierSearch{
		n:             s.N,
		k:             s.K,
		pendingLimit:  tier,
		maxExpansions: int64(s.MaxExpansions),
		maxCycleLen:   s.MaxCycleLen,
		starts:        s.initialStates(),
		obs:           newObsCache(s.N),
		queue:         newWorkQueue(),
	}
	w := newSearcher(ts)
	bindTable(w, tab)
	win, _, legal, err := w.analyze()
	return err == nil && !win && legal == 0
}

// bindTable makes tab the searcher's current table: it numbers tab's
// observations in the searcher's obsCache, chains the bindings in
// arbitrary order and materializes the chain, which it returns.
func bindTable(w *searcher, tab Table) *tableNode {
	nd := &tableNode{}
	for o, d := range tab {
		nd = &tableNode{parent: nd, oid: w.ts.obs.idOf(o), d: d}
	}
	w.materialize(nd)
	return nd
}

func solveWorkers(t *testing.T, n, k, workers int) Result {
	t.Helper()
	return solveWorkersMode(t, n, k, workers, false)
}

func solveWorkersMode(t *testing.T, n, k, workers int, noQuotient bool) Result {
	t.Helper()
	s := NewSolver(n, k)
	s.Workers = workers
	s.NoQuotient = noQuotient
	res, err := s.Solve()
	if err != nil {
		t.Fatalf("(k=%d,n=%d) workers=%d noQuotient=%v: %v", k, n, workers, noQuotient, err)
	}
	return res
}

// TestSolveDeterministicAcrossWorkers checks that Solve returns
// identical verdicts and tiers for every paper case regardless of the
// worker count, that the single-worker search is bit-reproducible
// (identical TablesExplored), and that any reported survivor table
// independently survives re-analysis — survivor behavior must not
// depend on how many branches a particular schedule happened to explore
// before fail-fast cancellation. The default mode is the
// symmetry-quotiented searcher; TestSolveDeterministicOracleMode covers
// the unquotiented oracle.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct{ n, k int }{
		{3, 1}, {5, 1}, {4, 2}, {6, 2}, {5, 3}, {6, 3}, {7, 3},
		{5, 4}, {6, 5}, {7, 6}, {6, 4}, {7, 5},
		{7, 4}, {8, 4}, {8, 5}, {9, 6},
	}
	if !testing.Short() {
		// The deep Theorem 5 cases, including the (5,9) pending-move case
		// whose tier-1 survivor exercises the split Look/Move machinery.
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
			seq.TablesExplored != seq2.TablesExplored {
			t.Errorf("(k=%d,n=%d): sequential runs disagree: %+v vs %+v", tc.k, tc.n, seq, seq2)
		}
		if par.Impossible != seq.Impossible {
			t.Errorf("(k=%d,n=%d): verdict differs: workers=1 %v, workers=%d %v",
				tc.k, tc.n, seq.Impossible, parallel, par.Impossible)
		}
		if par.Tier != seq.Tier {
			t.Errorf("(k=%d,n=%d): tier differs: workers=1 %d, workers=%d %d",
				tc.k, tc.n, seq.Tier, parallel, par.Tier)
		}
		if (seq.SurvivorTable == nil) != (par.SurvivorTable == nil) {
			t.Errorf("(k=%d,n=%d): survivor existence differs across worker counts", tc.k, tc.n)
		}
		for _, res := range []Result{seq, par} {
			if res.SurvivorTable != nil && !survivorHolds(NewSolver(tc.n, tc.k), res.Tier, res.SurvivorTable) {
				t.Errorf("(k=%d,n=%d): reported survivor table does not survive re-analysis", tc.k, tc.n)
			}
		}
	}
}

// TestSolveDeterministicOracleMode pins the unquotiented oracle to the
// same worker-count determinism contract as the default mode: the
// differential tests in quotient_test.go are only meaningful if both
// sides are individually schedule-independent.
func TestSolveDeterministicOracleMode(t *testing.T) {
	cases := []struct{ n, k int }{{5, 1}, {6, 2}, {7, 3}, {6, 4}, {7, 4}, {8, 5}}
	parallel := 4
	if p := runtime.GOMAXPROCS(0); p > parallel {
		parallel = p
	}
	for _, tc := range cases {
		seq := solveWorkersMode(t, tc.n, tc.k, 1, true)
		seq2 := solveWorkersMode(t, tc.n, tc.k, 1, true)
		par := solveWorkersMode(t, tc.n, tc.k, parallel, true)
		if seq.Impossible != seq2.Impossible || seq.Tier != seq2.Tier ||
			seq.TablesExplored != seq2.TablesExplored {
			t.Errorf("(k=%d,n=%d) oracle: sequential runs disagree: %+v vs %+v", tc.k, tc.n, seq, seq2)
		}
		if par.Impossible != seq.Impossible || par.Tier != seq.Tier {
			t.Errorf("(k=%d,n=%d) oracle: verdict/tier differs across worker counts", tc.k, tc.n)
		}
	}
}

// TestSurvivorIndependentOfSchedule weakens the adversary (no long
// starvation loops) so that survivor tables exist even for (4,7), then
// checks that every worker count agrees a survivor exists and that each
// reported survivor holds under re-analysis with the same weakening.
func TestSurvivorIndependentOfSchedule(t *testing.T) {
	mk := func(workers int) *Solver {
		s := NewSolver(7, 4)
		s.MaxCycleLen = 1 // too short to catch any starvation loop
		s.PendingTiers = []int{0}
		s.Workers = workers
		return s
	}
	for _, workers := range []int{1, 2, 8} {
		s := mk(workers)
		res, err := s.Solve()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Impossible {
			t.Fatalf("workers=%d: crippled adversary should not win (4,7)", workers)
		}
		if res.SurvivorTable == nil {
			t.Fatalf("workers=%d: no survivor reported", workers)
		}
		if !survivorHolds(mk(1), 0, res.SurvivorTable) {
			t.Errorf("workers=%d: survivor does not survive re-analysis", workers)
		}
	}
}

// --- contamination oracle ----------------------------------------------------

// oracleCont is the seed's boolean-slice contamination simulator
// (mixed-search rules of §4.1), retained as a differential oracle for
// the bitmask implementation in state.go.
type oracleCont struct {
	n     int
	r     ring.Ring
	clear []bool
	occ   uint64
}

func newOracleCont(n int, occ uint64) *oracleCont {
	c := &oracleCont{n: n, r: ring.New(n), clear: make([]bool, n), occ: occ}
	c.refresh()
	return c
}

func (c *oracleCont) occupiedAt(u int) bool { return c.occ&(1<<uint(u)) != 0 }

func (c *oracleCont) refresh() {
	for e := 0; e < c.n; e++ {
		u, v := c.r.EdgeEnds(ring.Edge(e))
		if c.occupiedAt(u) && c.occupiedAt(v) {
			c.clear[e] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for e := 0; e < c.n; e++ {
			if c.clear[e] {
				continue
			}
			u, v := c.r.EdgeEnds(ring.Edge(e))
			for _, z := range []int{u, v} {
				if c.occupiedAt(z) {
					continue
				}
				a, b := c.r.IncidentEdges(z)
				for _, f := range []ring.Edge{a, b} {
					if c.clear[f] {
						c.clear[f] = false
						changed = true
					}
				}
			}
		}
	}
}

func (c *oracleCont) applyMoves(movesCW, movesCCW uint64, occAfter uint64) {
	c.occ = occAfter
	for u := 0; u < c.n; u++ {
		if movesCW&(1<<uint(u)) != 0 {
			c.clear[c.r.EdgeBetween(u, c.r.Step(u, ring.CW))] = true
		}
		if movesCCW&(1<<uint(u)) != 0 {
			c.clear[c.r.EdgeBetween(u, c.r.Step(u, ring.CCW))] = true
		}
	}
	c.refresh()
}

func (c *oracleCont) mask() uint64 {
	var m uint64
	for e, cl := range c.clear {
		if cl {
			m |= 1 << uint(e)
		}
	}
	return m
}

// TestContaminationMaskMatchesOracle drives random move sequences on
// random occupancies for every ring size the solver supports and checks
// the bitmask contamination fixpoint against the boolean-slice oracle.
func TestContaminationMaskMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 3; n <= maxRingSize; n++ {
		for trial := 0; trial < 40; trial++ {
			k := 1 + rng.Intn(n-1)
			var occ uint64
			for bitsSet := 0; bitsSet < k; {
				u := rng.Intn(n)
				if occ&(1<<uint(u)) == 0 {
					occ |= 1 << uint(u)
					bitsSet++
				}
			}
			oracle := newOracleCont(n, occ)
			cm := contRefresh(0, occ, n)
			if cm != oracle.mask() {
				t.Fatalf("n=%d occ=%b: initial clear mask %b != oracle %b", n, occ, cm, oracle.mask())
			}
			// Random single-robot moves (the solver only clears edges it
			// actually traverses; occupancy evolves accordingly).
			for step := 0; step < 12; step++ {
				occupied := make([]int, 0, n)
				for u := 0; u < n; u++ {
					if occ&(1<<uint(u)) != 0 {
						occupied = append(occupied, u)
					}
				}
				u := occupied[rng.Intn(len(occupied))]
				dir := ring.CW
				if rng.Intn(2) == 0 {
					dir = ring.CCW
				}
				to := ring.New(n).Step(u, dir)
				if occ&(1<<uint(to)) != 0 {
					continue // blocked; solver never executes these
				}
				var mcw, mccw uint64
				if dir == ring.CW {
					mcw = 1 << uint(u)
				} else {
					mccw = 1 << uint(u)
				}
				occ = occ&^(1<<uint(u)) | 1<<uint(to)
				oracle.applyMoves(mcw, mccw, occ)
				cm = contApply(cm, mcw, mccw, occ, n)
				if cm != oracle.mask() {
					t.Fatalf("n=%d step %d: clear mask %b != oracle %b", n, step, cm, oracle.mask())
				}
			}
		}
	}
}
