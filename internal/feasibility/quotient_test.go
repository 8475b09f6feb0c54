package feasibility

import (
	"math/rand"
	"testing"

	"ringrobots/internal/config"
	"ringrobots/internal/ring"
)

// randomState draws a game state with k occupied nodes and up to two
// pending moves on an n-ring.
func randomState(rng *rand.Rand, n, k int) state {
	var s state
	for set := 0; set < k; {
		u := rng.Intn(n)
		if s.occupied&(1<<uint(u)) == 0 {
			s.occupied |= 1 << uint(u)
			set++
		}
	}
	for p := rng.Intn(3); p > 0; p-- {
		u := rng.Intn(n)
		if !s.occupiedAt(u) {
			continue
		}
		if _, has := s.pendingAt(u); has {
			continue // one pending register per robot, as in the searcher
		}
		d := ring.CW
		if rng.Intn(2) == 0 {
			d = ring.CCW
		}
		s = s.withPending(u, d)
	}
	return s
}

// TestCanonStateOrbitInvariance checks the core property of the
// symmetry quotient: every dihedral image of a state canonicalizes to
// the same representative, the reported isometry actually maps the
// state onto it, and the representative is its own canonical form.
func TestCanonStateOrbitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 3; n <= maxRingSize; n++ {
		for trial := 0; trial < 24; trial++ {
			k := 1 + rng.Intn(n-1)
			s := randomState(rng, n, k)
			canon, g := canonState(s, n)
			if g.apply(s, n) != canon {
				t.Fatalf("n=%d state %+v: reported isometry (r=%d refl=%v) maps to %+v, not canon %+v",
					n, s, g.rot(), g.refl(), g.apply(s, n), canon)
			}
			if c2, g2 := canonState(canon, n); c2 != canon {
				t.Fatalf("n=%d: canonical state %+v re-canonicalizes to %+v (iso r=%d refl=%v)",
					n, canon, c2, g2.rot(), g2.refl())
			}
			for refl := 0; refl < 2; refl++ {
				for r := 0; r < n; r++ {
					img := isoOf(r, refl == 1).apply(s, n)
					if c2, _ := canonState(img, n); c2 != canon {
						t.Fatalf("n=%d state %+v image under (r=%d refl=%d): canon %+v != orbit canon %+v",
							n, s, r, refl, c2, canon)
					}
				}
			}
		}
	}
}

// TestIsomGroupLaws pins the packed isometry algebra: composition
// against the pointwise definition, inverses, and mask actions
// (including the shifted edge relabeling under reflections).
func TestIsomGroupLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for n := 3; n <= maxRingSize; n += 7 {
		all := make([]isom, 0, 2*n)
		for r := 0; r < n; r++ {
			all = append(all, isoOf(r, false), isoOf(r, true))
		}
		for _, g := range all {
			inv := g.inverse(n)
			if got := g.compose(inv, n); got != isoIdentity {
				t.Fatalf("n=%d: g∘g⁻¹ = (r=%d refl=%v)", n, got.rot(), got.refl())
			}
			for _, h := range all {
				gh := g.compose(h, n)
				for u := 0; u < n; u++ {
					if gh.node(u, n) != g.node(h.node(u, n), n) {
						t.Fatalf("n=%d: composition law fails at u=%d", n, u)
					}
				}
			}
			m := rng.Uint64() & (uint64(1)<<uint(n) - 1)
			var nodeWant, edgeWant uint64
			for u := 0; u < n; u++ {
				if m&(1<<uint(u)) != 0 {
					nodeWant |= 1 << uint(g.node(u, n))
					// Edge u joins nodes u and u+1; its image joins the
					// images of those nodes, which are adjacent.
					a, b := g.node(u, n), g.node((u+1)%n, n)
					e := a
					if (a+1)%n != b {
						e = b
					}
					edgeWant |= 1 << uint(e)
				}
			}
			if got := g.nodeMask(m, n); got != nodeWant {
				t.Fatalf("n=%d g=(r=%d refl=%v): nodeMask %b != %b", n, g.rot(), g.refl(), got, nodeWant)
			}
			if got := g.edgeMask(m, n); got != edgeWant {
				t.Fatalf("n=%d g=(r=%d refl=%v): edgeMask %b != %b", n, g.rot(), g.refl(), got, edgeWant)
			}
		}
	}
}

// solveMode runs a fresh solver in the requested mode.
func solveMode(t *testing.T, n, k int, noQuotient bool, tune func(*Solver)) Result {
	t.Helper()
	s := NewSolver(n, k)
	s.Workers = 1
	s.NoQuotient = noQuotient
	if tune != nil {
		tune(s)
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatalf("(k=%d,n=%d) noQuotient=%v: %v", k, n, noQuotient, err)
	}
	return res
}

// checkModesAgree solves (n,k) in both modes and enforces the
// differential contract: identical verdicts and tiers, matching
// survivor existence, every reported survivor valid under the *other*
// mode's analysis, and the quotient never interning more states.
func checkModesAgree(t *testing.T, n, k int, tune func(*Solver)) (quot, oracle Result) {
	t.Helper()
	quot = solveMode(t, n, k, false, tune)
	oracle = solveMode(t, n, k, true, tune)
	if quot.Impossible != oracle.Impossible {
		t.Errorf("(k=%d,n=%d): verdict differs: quotient %v, oracle %v", k, n, quot.Impossible, oracle.Impossible)
	}
	if quot.Tier != oracle.Tier {
		t.Errorf("(k=%d,n=%d): tier differs: quotient %d, oracle %d", k, n, quot.Tier, oracle.Tier)
	}
	if (quot.SurvivorTable == nil) != (oracle.SurvivorTable == nil) {
		t.Errorf("(k=%d,n=%d): survivor existence differs between modes", k, n)
	}
	for _, res := range []Result{quot, oracle} {
		if res.SurvivorTable == nil {
			continue
		}
		for _, nq := range []bool{false, true} {
			mk := NewSolver(n, k)
			if tune != nil {
				tune(mk)
			}
			mk.NoQuotient = nq
			if !survivorHoldsMode(mk, res.Tier, res.SurvivorTable) {
				t.Errorf("(k=%d,n=%d): survivor table fails re-analysis with noQuotient=%v", k, n, nq)
			}
		}
	}
	return quot, oracle
}

// TestQuotientMatchesOracleSmall runs the full differential contract on
// every small paper-adjacent case, covering both impossibility and
// bounded-adversary-survivor outcomes at both tiers.
func TestQuotientMatchesOracleSmall(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{3, 1}, {4, 1}, {5, 1}, {3, 2}, {4, 2}, {5, 2}, {6, 2},
		{5, 3}, {6, 3}, {7, 3}, {5, 4}, {6, 4}, {6, 5}, {7, 4},
		{7, 5}, {7, 6}, {8, 4}, {8, 5}, {9, 6},
	} {
		checkModesAgree(t, tc.n, tc.k, nil)
	}
}

// TestQuotientMatchesOracleRandomized fuzzes the differential contract
// over random (k, n) instances with randomized adversary strength, so
// crippled-adversary survivors and odd tier ladders are exercised too.
// MaxCycleLen stays at values where the lasso hunt saturates: the cap
// counts quotient steps, and one quotient step can cover several raw
// steps (a canonical self-loop lifts to an up-to-n-step raw cycle), so
// a deliberately starved cap — MaxCycleLen = 1, as in
// TestSurvivorIndependentOfSchedule — cripples the oracle more than the
// quotient and the two legitimately disagree. The bounded-multiplicity
// hunt widens that starved-cap gap (a 2-step projected loop through a
// revisited canonical state lifts to a raw cycle far beyond an equal
// raw cap), so caps below 6 stay excluded here; at saturating caps the
// trials now also exercise orbit-mate loops — dense k (n−2, n−3)
// instances where the revisit hunt fires — and the contract must still
// hold. TestRevisitCatchesOrbitMateLoop pins one such loop exactly.
func TestQuotientMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(6) // 3..8
		k := 1 + rng.Intn(n-1)
		if trial%3 == 0 && n >= 5 {
			k = n - 2 - rng.Intn(2) // symmetric-rich band: orbit-mate loops live here
		}
		cycleLen := []int{6, 12, 24}[rng.Intn(3)]
		tiers := [][]int{{0}, {0, 1}, {0, 2}}[rng.Intn(3)]
		checkModesAgree(t, n, k, func(s *Solver) {
			s.MaxCycleLen = cycleLen
			s.PendingTiers = tiers
		})
	}
}

// TestRevisitCatchesOrbitMateLoop pins the bounded-multiplicity lasso
// hunt on a concrete (5,8) decision table whose only adversary win is a
// fair starvation loop visiting two orbit-mates — raw states on one
// loop that canonicalize to the same quotient state. The simple-cycle
// DFS cannot traverse that projection (it would have to enter the
// canonical state twice), so before the revisit hunt the quotiented
// searcher failed to refute this table and branched on; it was the one
// table in the whole (5,8) tree with that blind spot (the unquotiented
// oracle refutes it outright, which is part of why it closed branches
// earlier — the PR 3 follow-up). The entries were extracted by diffing
// the two searchers' refutation sets.
func fixtureTable() Table {
	key := func(lo, hi config.View) ObsKey {
		return ObsKey{Lo: config.KeyOf(lo), Hi: config.KeyOf(hi)}
	}
	return Table{
		key(config.View{0, 0, 2, 0, 1}, config.View{1, 0, 2, 0, 0}): DTowardHi,
		key(config.View{0, 2, 0, 0, 1}, config.View{1, 0, 0, 2, 0}): DTowardHi,
		key(config.View{0, 1, 0, 2, 0}, config.View{0, 2, 0, 1, 0}): DStay,
		key(config.View{0, 1, 1, 1, 0}, config.View{0, 1, 1, 1, 0}): DStay,
		key(config.View{0, 0, 0, 1, 2}, config.View{2, 1, 0, 0, 0}): DStay,
		key(config.View{0, 0, 1, 0, 2}, config.View{2, 0, 1, 0, 0}): DTowardHi,
		key(config.View{1, 0, 1, 0, 1}, config.View{1, 0, 1, 0, 1}): DStay,
		key(config.View{0, 0, 0, 3, 0}, config.View{0, 3, 0, 0, 0}): DStay,
		key(config.View{0, 0, 1, 2, 0}, config.View{0, 2, 1, 0, 0}): DStay,
		key(config.View{0, 0, 1, 1, 1}, config.View{1, 1, 1, 0, 0}): DStay,
		key(config.View{0, 1, 1, 0, 1}, config.View{1, 0, 1, 1, 0}): DStay,
		key(config.View{0, 0, 0, 2, 1}, config.View{1, 2, 0, 0, 0}): DTowardHi,
		key(config.View{0, 0, 3, 0, 0}, config.View{0, 0, 3, 0, 0}): DStay,
		key(config.View{0, 1, 0, 0, 2}, config.View{2, 0, 0, 1, 0}): DTowardHi,
		key(config.View{0, 0, 2, 1, 0}, config.View{0, 1, 2, 0, 0}): DStay,
		key(config.View{0, 1, 0, 1, 1}, config.View{1, 1, 0, 1, 0}): DTowardHi,
	}
}

func TestRevisitCatchesOrbitMateLoop(t *testing.T) {
	table := fixtureTable()
	for _, noQuotient := range []bool{false, true} {
		s := NewSolver(8, 5)
		ts := &tierSearch{
			n:             s.N,
			k:             s.K,
			pendingLimit:  0,
			maxExpansions: int64(s.MaxExpansions),
			maxCycleLen:   s.MaxCycleLen,
			quotient:      !noQuotient,
			starts:        s.initialStates(),
			obs:           newObsCache(s.N),
			queue:         newWorkQueue(),
		}
		w := newSearcher(ts)
		bindTable(w, table)
		win, _, _, err := w.analyze()
		if err != nil {
			t.Fatalf("noQuotient=%v: %v", noQuotient, err)
		}
		if !win {
			t.Errorf("noQuotient=%v: orbit-mate starvation loop not found — the fixture table must be refuted in both modes", noQuotient)
		}
	}
}

// TestQuotientMatchesOracleTheorem5 is the acceptance check of the
// symmetry quotient: identical verdicts and tiers on all six Theorem 5
// figures, with at least 4× interned-state compression on the deep
// (4,9) case.
func TestQuotientMatchesOracleTheorem5(t *testing.T) {
	if testing.Short() {
		t.Skip("deep differential game searches skipped in -short mode")
	}
	for _, f := range PaperFigures() {
		quot, oracle := checkModesAgree(t, f.N, f.K, nil)
		t.Logf("Figure %d (k=%d,n=%d): impossible=%v tier=%d; states quotient=%d oracle=%d (%.1fx)",
			f.Figure, f.K, f.N, quot.Impossible, quot.Tier,
			quot.StatesInterned, oracle.StatesInterned,
			float64(oracle.StatesInterned)/float64(quot.StatesInterned))
		if f.K == 4 && f.N == 9 {
			if quot.StatesInterned*4 > oracle.StatesInterned {
				t.Errorf("(4,9): interned-state compression below 4x: quotient %d, oracle %d",
					quot.StatesInterned, oracle.StatesInterned)
			}
		}
	}
}

// survivorHoldsMode re-analyzes a claimed survivor under the solver's
// configured mode (survivorHolds in determinism_test.go always uses the
// unquotiented oracle).
func survivorHoldsMode(s *Solver, tier int, tab Table) bool {
	ts := &tierSearch{
		n:             s.N,
		k:             s.K,
		pendingLimit:  tier,
		maxExpansions: int64(s.MaxExpansions),
		maxCycleLen:   s.MaxCycleLen,
		quotient:      !s.NoQuotient,
		starts:        s.initialStates(),
		obs:           newObsCache(s.N),
		queue:         newWorkQueue(),
	}
	w := newSearcher(ts)
	bindTable(w, tab)
	win, _, legal, err := w.analyze()
	return err == nil && !win && legal == 0
}
