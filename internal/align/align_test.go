package align

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ringrobots/internal/config"
	"ringrobots/internal/corda"
	"ringrobots/internal/enumerate"
	"ringrobots/internal/ring"
)

func TestValidate(t *testing.T) {
	if err := Validate(10, 2); err == nil {
		t.Error("accepted k=2")
	}
	if err := Validate(10, 8); err == nil {
		t.Error("accepted k=n-2")
	}
	if err := Validate(10, 9); err == nil {
		t.Error("accepted k=n-1")
	}
	if err := Validate(10, 7); err != nil {
		t.Errorf("rejected valid k=7, n=10: %v", err)
	}
	if err := Validate(6, 3); err != nil {
		t.Errorf("rejected valid k=3, n=6: %v", err)
	}
}

func TestPlanDoneOnCStar(t *testing.T) {
	c, _ := config.CStar(10, 5)
	p, err := ComputePlan(c)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done || p.Rule != RuleNone {
		t.Fatalf("plan on C*: %+v", p)
	}
}

func TestPlanRejectsNonRigid(t *testing.T) {
	sym := config.MustNew(10, 0, 1, 3, 7, 9) // mirror-symmetric around node 0
	if !sym.IsSymmetric() {
		t.Fatal("test fixture is not symmetric")
	}
	if _, err := ComputePlan(sym); err == nil {
		t.Error("accepted a symmetric configuration")
	} else if !errors.Is(err, ErrNotApplicable) {
		t.Errorf("error %v does not wrap ErrNotApplicable", err)
	}
}

func TestPlanReduction0(t *testing.T) {
	// Supermin (1,2,3) on n=9, k=3: q0=1 > 0 → reduction_0.
	c, err := config.FromIntervals(0, config.View{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ComputePlan(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rule != Rule0 {
		t.Fatalf("rule = %v, want reduction0", p.Rule)
	}
	next, err := Apply(c, p)
	if err != nil {
		t.Fatal(err)
	}
	want := config.View{0, 2, 4}
	if !next.SuperminView().Equal(want) {
		t.Fatalf("after reduction0: %v, want supermin %v", next.SuperminView(), want)
	}
	if !next.SuperminView().Less(c.SuperminView()) {
		t.Fatal("reduction0 did not decrease the supermin")
	}
}

func TestPlanReduction1(t *testing.T) {
	// Supermin (0,2,1,3) on n=10, k=4: q0=0, ℓ1=1, reduction_1 shrinks q1.
	c, err := config.FromIntervals(0, config.View{0, 2, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ComputePlan(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rule != Rule1 {
		t.Fatalf("rule = %v, want reduction1", p.Rule)
	}
	next, err := Apply(c, p)
	if err != nil {
		t.Fatal(err)
	}
	want := config.View{0, 1, 2, 3}
	if !next.SuperminView().Equal(want) {
		t.Fatalf("after reduction1 supermin = %v, want %v", next.SuperminView(), want)
	}
}

func TestPlanReduction2(t *testing.T) {
	// A configuration satisfying Lemma 3's conditions 1–4 so reduction_1
	// creates symmetry: W = (0,1,q2,…,q_{k−1}) with q2+1=q_{k−1} and the
	// middle palindromic. Take (0,1,2,3): ℓ1=1, q_{ℓ1}=1, q_{ℓ1+1}+1=3=q3,
	// middle sequence empty → conditions hold. reduction_1 would give a
	// symmetric configuration, so Align must use reduction_2 (if it avoids
	// symmetry) on q_{ℓ2}=q2.
	c, err := config.FromIntervals(0, config.View{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ComputePlan(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rule != Rule2 {
		t.Fatalf("rule = %v, want reduction2", p.Rule)
	}
	next, err := Apply(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if !next.IsRigid() {
		t.Fatalf("reduction2 result not rigid: %v", next)
	}
	if !next.SuperminView().Less(c.SuperminView()) {
		t.Fatal("reduction2 did not decrease the supermin")
	}
}

func TestPlanReductionMinus1(t *testing.T) {
	// Lemma 5 family: W = (0,1,1,1,2) (k=5, n=10). reduction_1 and
	// reduction_2 both create symmetry; reduction_{−1} must apply and keep
	// the configuration rigid.
	c, err := config.FromIntervals(0, config.View{0, 1, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsRigid() {
		t.Fatal("fixture not rigid")
	}
	p, err := ComputePlan(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rule != RuleMinus1 {
		t.Fatalf("rule = %v, want reduction-1", p.Rule)
	}
	next, err := Apply(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if !next.IsRigid() {
		t.Fatalf("reduction-1 result not rigid: %v", next)
	}
	// reduction_{−1} may *increase* the supermin; Theorem 1 promises the
	// following move strictly decreases it below the original.
	p2, err := ComputePlan(next)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Rule != Rule1 {
		t.Fatalf("move after reduction-1 should be reduction1, got %v", p2.Rule)
	}
	next2, err := Apply(next, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !next2.SuperminView().Less(c.SuperminView()) {
		t.Fatalf("two-step window did not decrease supermin: %v → %v → %v",
			c.SuperminView(), next.SuperminView(), next2.SuperminView())
	}
}

func TestCsDetour(t *testing.T) {
	// From Cs = (0,1,1,2), Align performs reduction_1 twice: first to the
	// symmetric (0,0,2,2), then the axis robot moves arbitrarily to C*.
	cs, err := config.FromIntervals(0, config.CsView())
	if err != nil {
		t.Fatal(err)
	}
	p, err := ComputePlan(cs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rule != RuleCs {
		t.Fatalf("rule from Cs = %v, want forced reduction1", p.Rule)
	}
	mid, err := Apply(cs, p)
	if err != nil {
		t.Fatal(err)
	}
	if !mid.IsPostCs() {
		t.Fatalf("Cs successor = %v, want (0,0,2,2)", mid.SuperminView())
	}
	p2, err := ComputePlan(mid)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Rule != RuleCs || !p2.Either {
		t.Fatalf("plan from (0,0,2,2) = %+v, want Either move", p2)
	}
	// Both directions must reach C*.
	for _, target := range []int{mid.Ring().Step(p2.Mover, ring.CW), mid.Ring().Step(p2.Mover, ring.CCW)} {
		final, err := mid.Move(p2.Mover, target)
		if err != nil {
			t.Fatal(err)
		}
		if !final.IsCStar() {
			t.Fatalf("axis move to %d gave %v, want C*", target, final.SuperminView())
		}
	}
}

// planWalk runs the global planner until C*, asserting Theorem 1's
// invariants along the way. It returns the number of moves.
func planWalk(t *testing.T, c config.Config) int {
	t.Helper()
	moves := 0
	budget := 4 * c.N() * c.N()
	prevSupermin := c.SuperminView()
	sinceDecrease := 0
	for !c.IsCStar() {
		if moves >= budget {
			t.Fatalf("no convergence after %d moves from %v", moves, c)
		}
		p, err := ComputePlan(c)
		if err != nil {
			t.Fatalf("plan failed at %v: %v", c, err)
		}
		next, err := Apply(c, p)
		if err != nil {
			t.Fatalf("apply failed at %v: %v", c, err)
		}
		// Theorem 1: intermediates are rigid or (0,0,2,2).
		if !next.IsCStar() && !next.IsRigid() && !next.IsPostCs() {
			t.Fatalf("intermediate %v is neither rigid nor (0,0,2,2)", next)
		}
		// Supermin decreases within every 2-move window (reduction_{−1}
		// and the Cs detour may take one non-decreasing step).
		if next.SuperminView().Less(prevSupermin) {
			prevSupermin = next.SuperminView()
			sinceDecrease = 0
		} else {
			sinceDecrease++
			if sinceDecrease > 2 {
				t.Fatalf("supermin stalled for %d moves at %v", sinceDecrease, next)
			}
		}
		c = next
		moves++
	}
	return moves
}

func TestTheorem1Exhaustive(t *testing.T) {
	// E1: from every rigid exclusive configuration with 3 ≤ k < n−2 and
	// n ≤ 13, the planner reaches C*.
	total := 0
	for n := 6; n <= 13; n++ {
		for k := 3; k < n-2; k++ {
			classes, err := enumerate.RigidClasses(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range classes {
				planWalk(t, c)
				total++
			}
		}
	}
	if total < 100 {
		t.Fatalf("exhaustive space suspiciously small: %d configurations", total)
	}
	t.Logf("verified Theorem 1 on %d rigid configurations", total)
}

func TestTheorem1RandomLargeRings(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	for _, n := range []int{20, 50, 100} {
		for trial := 0; trial < 5; trial++ {
			k := 3 + rng.Intn(n-6)
			c, err := enumerate.RandomRigid(rng, n, k, 10000)
			if err != nil {
				t.Fatal(err)
			}
			moves := planWalk(t, c)
			if moves == 0 && !c.IsCStar() {
				t.Fatalf("zero moves from non-C* configuration %v", c)
			}
		}
	}
}

func TestLemma2Reduction0KeepsRigidAndDecreases(t *testing.T) {
	// Lemma 2: with q0 > 0, reduction_0 yields a rigid configuration with
	// strictly smaller supermin. Exhaustive over rigid classes.
	for n := 6; n <= 12; n++ {
		for k := 3; k < n-2; k++ {
			classes, err := enumerate.RigidClasses(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range classes {
				if c.SuperminView()[0] == 0 {
					continue
				}
				p, err := ComputePlan(c)
				if err != nil {
					t.Fatal(err)
				}
				if p.Rule != Rule0 {
					t.Fatalf("q0>0 but rule = %v at %v", p.Rule, c)
				}
				next, err := Apply(c, p)
				if err != nil {
					t.Fatal(err)
				}
				if !next.IsRigid() {
					t.Fatalf("Lemma 2 violated: %v → %v not rigid", c, next)
				}
				if !next.SuperminView().Less(c.SuperminView()) {
					t.Fatalf("Lemma 2 violated: supermin did not decrease at %v", c)
				}
			}
		}
	}
}

// lemma3Conditions evaluates conditions 1–4 of Lemma 3 on a supermin view,
// in their general palindromic form: after reduction_1, the view is
// (0^{ℓ1+1}, q_{ℓ1+1}+1, q_{ℓ1+2}, …, q_{k−1}) and, the zero block being
// the unique longest one, the configuration is symmetric iff the suffix
// after the zeros is a palindrome. For suffixes of length ≥ 2 this is
// exactly the paper's conditions 3 ∧ 4 (first = last via
// q_{ℓ1+1}+1 = q_{k−1}, middle palindromic); the paper's literal wording
// misses the degenerate suffix of length 1 (ℓ1 = k−2, e.g. W = (0,1,2)),
// where reduction_1 also creates symmetry. TestLemma3Iff checks this form
// exhaustively.
func lemma3Conditions(w config.View) bool {
	k := len(w)
	l1 := firstPositive(w, 0)
	if l1 <= 0 {
		return false
	}
	if w[l1] != 1 { // condition 2
		return false
	}
	// Suffix of the post-move view: (q_{ℓ1+1}+1, q_{ℓ1+2}, …, q_{k−1}).
	suffix := make([]int, 0, k-l1-1)
	suffix = append(suffix, w[l1+1]+1)
	suffix = append(suffix, w[l1+2:]...)
	i, j := 0, len(suffix)-1
	for i < j {
		if suffix[i] != suffix[j] {
			return false
		}
		i++
		j--
	}
	return true
}

func TestLemma3Iff(t *testing.T) {
	// For every rigid configuration with q0 = 0: reduction_1's result is
	// aperiodic, and it is symmetric iff conditions 1–4 hold.
	for n := 6; n <= 12; n++ {
		for k := 3; k < n-2; k++ {
			classes, err := enumerate.RigidClasses(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range classes {
				w, anchors := c.Supermin()
				if w[0] != 0 {
					continue
				}
				l1 := firstPositive(w, 0)
				nodes := nodesInOrder(c, anchors[0])
				mover := nodes[(l1+1)%k]
				next, err := c.Move(mover, c.Ring().Step(mover, anchors[0].Dir.Opposite()))
				if err != nil {
					t.Fatal(err)
				}
				if next.IsPeriodic() {
					t.Fatalf("Lemma 3 violated: reduction1 of %v is periodic", c)
				}
				want := lemma3Conditions(w)
				if got := next.IsSymmetric(); got != want {
					t.Fatalf("Lemma 3 iff violated at %v: symmetric=%v, conditions=%v", c, got, want)
				}
			}
		}
	}
}

func TestLemma4Iff(t *testing.T) {
	// For rigid configurations satisfying Lemma 3's conditions (so
	// reduction_1 creates symmetry): reduction_2's result is aperiodic and
	// symmetric iff W_min matches (0,1,1⁺,2) or
	// (0^{ℓ1},1,{0^{ℓ1−1},1}⁺,0^{ℓ1−2},1).
	checked := 0
	for n := 6; n <= 13; n++ {
		for k := 3; k < n-2; k++ {
			classes, err := enumerate.RigidClasses(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range classes {
				// Align never applies reductions at C*; the lemma's
				// hypotheses implicitly exclude it (at C*, reduction_2 can
				// produce symmetric or even periodic configurations, e.g.
				// (1,1,1) from C*(6,3)).
				if c.IsCStar() {
					continue
				}
				w, anchors := c.Supermin()
				if w[0] != 0 || !lemma3Conditions(w) {
					continue
				}
				l2 := firstPositive(w, firstPositive(w, 0)+1)
				if l2 < 0 {
					continue
				}
				nodes := nodesInOrder(c, anchors[0])
				mover := nodes[(l2+1)%k]
				next, err := c.Move(mover, c.Ring().Step(mover, anchors[0].Dir.Opposite()))
				if err != nil {
					t.Fatal(err)
				}
				if next.IsPeriodic() {
					t.Fatalf("Lemma 4 violated: reduction2 of %v is periodic", c)
				}
				inPattern := matchesLemma4Patterns(w)
				if got := next.IsSymmetric(); got != inPattern {
					t.Fatalf("Lemma 4 iff violated at %v (W=%v): symmetric=%v, pattern=%v",
						c, w, got, inPattern)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no configurations exercised Lemma 4")
	}
	t.Logf("Lemma 4 verified on %d configurations", checked)
}

func matchesLemma4Patterns(w config.View) bool {
	if config.Lemma4Pattern5().MatchView(w) {
		return true
	}
	l1 := firstPositive(w, 0)
	if l1 >= 2 {
		if p, err := config.Lemma4Pattern6(l1); err == nil && p.MatchView(w) {
			return true
		}
	}
	return false
}

func TestLemma5Rigidity(t *testing.T) {
	// For rigid configurations in Lemma 5's families, reduction_{−1}
	// yields a rigid configuration — except Cs itself, the paper's
	// singular case.
	checked := 0
	for n := 6; n <= 13; n++ {
		for k := 3; k < n-2; k++ {
			classes, err := enumerate.RigidClasses(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range classes {
				w, anchors := c.Supermin()
				inL5 := config.Lemma5Pattern1().MatchView(w)
				if !inL5 {
					l1 := firstPositive(w, 0)
					if l1 >= 2 {
						if p, err := config.Lemma4Pattern6(l1); err == nil && p.MatchView(w) {
							inL5 = true
						}
					}
				}
				if !inL5 {
					continue
				}
				nodes := nodesInOrder(c, anchors[0])
				mover := nodes[k-1]
				next, err := c.Move(mover, c.Ring().Step(mover, anchors[0].Dir))
				if err != nil {
					t.Fatal(err)
				}
				if !next.IsRigid() {
					t.Fatalf("Lemma 5 violated: reduction-1 of %v (W=%v) gives non-rigid %v", c, w, next)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no configurations exercised Lemma 5")
	}
	t.Logf("Lemma 5 verified on %d configurations", checked)
}

func TestLocalRuleMatchesGlobalPlanner(t *testing.T) {
	// The oblivious per-robot rule must select exactly the planner's mover
	// and move, on every rigid configuration of the exhaustive space.
	for n := 6; n <= 12; n++ {
		for k := 3; k < n-2; k++ {
			classes, err := enumerate.RigidClasses(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range classes {
				if c.IsCStar() {
					w := corda.FromConfig(c, true)
					if movers := corda.MoverSet(w, Algorithm{}); len(movers) != 0 {
						t.Fatalf("robots want to move in C*: %v", movers)
					}
					continue
				}
				assertLocalMatchesPlan(t, c)
			}
		}
	}
}

func assertLocalMatchesPlan(t *testing.T, c config.Config) {
	t.Helper()
	p, err := ComputePlan(c)
	if err != nil {
		t.Fatalf("plan at %v: %v", c, err)
	}
	w := corda.FromConfig(c, true)
	movers := corda.MoverSet(w, Algorithm{})
	if len(movers) != 1 {
		t.Fatalf("local rule has %d movers at %v, want 1 (plan %+v)", len(movers), c, p)
	}
	id := movers[0]
	if got := w.Position(id); got != p.Mover {
		t.Fatalf("local mover at node %d, plan says %d (config %v)", got, p.Mover, c)
	}
	// Execute the local decision and compare configurations.
	snap, loDir := w.Snapshot(id)
	d := Algorithm{}.Compute(snap)
	if d == corda.Either {
		if !p.Either {
			t.Fatalf("local rule returned Either where plan is directed at %v", c)
		}
		return
	}
	var dir ring.Direction
	switch d {
	case corda.TowardLo:
		dir = loDir
	case corda.TowardHi:
		dir = loDir.Opposite()
	default:
		t.Fatalf("unexpected decision %v", d)
	}
	if got := w.Ring().Step(p.Mover, dir); got != p.Target {
		t.Fatalf("local rule moves %d→%d, plan %d→%d (config %v)", p.Mover, got, p.Mover, p.Target, c)
	}
}

func TestRunReachesCStarUnderRoundRobin(t *testing.T) {
	for n := 8; n <= 12; n++ {
		for k := 3; k < n-2; k++ {
			classes, err := enumerate.RigidClasses(n, k)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range classes {
				if i%3 != 0 { // sample: the planner test is exhaustive already
					continue
				}
				w := corda.FromConfig(c, true)
				if _, err := Run(w, 20*n*n*k); err != nil {
					t.Fatalf("n=%d k=%d from %v: %v", n, k, c, err)
				}
				if !w.Config().IsCStar() {
					t.Fatalf("world not at C*: %v", w)
				}
			}
		}
	}
}

func TestRunUnderAsyncAdversary(t *testing.T) {
	// Align's single-mover property makes it insensitive to asynchrony:
	// random adversaries with held pending moves must still reach C*.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(6)
		k := 3 + rng.Intn(n-6)
		c, err := enumerate.RandomRigid(rng, n, k, 5000)
		if err != nil {
			t.Fatal(err)
		}
		w := corda.FromConfig(c, true)
		as := corda.NewAsyncRunner(w, Algorithm{}, corda.NewRandomAsync(int64(trial), 0.4))
		reason, err := as.RunUntil(func(w *corda.World) bool {
			return w.Config().IsCStar()
		}, 100*n*n*k)
		if err != nil {
			t.Fatalf("trial %d from %v: %v", trial, c, err)
		}
		if reason != corda.StopCondition {
			t.Fatalf("trial %d: stopped %v before C* (world %v)", trial, reason, w)
		}
	}
}

func TestRunFailsGracefullyOnBudget(t *testing.T) {
	c, err := enumerate.RandomRigid(rand.New(rand.NewSource(5)), 20, 9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	w := corda.FromConfig(c, true)
	if _, err := Run(w, 3); err == nil {
		t.Error("Run with tiny budget reported success")
	}
}

func TestRuleStrings(t *testing.T) {
	for r, want := range map[Rule]string{
		RuleNone: "none", Rule0: "reduction0", Rule1: "reduction1",
		Rule2: "reduction2", RuleMinus1: "reduction-1", RuleCs: "reduction1(Cs)",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), want)
		}
	}
}

func TestDecideFromSnapshotIgnoresGarbage(t *testing.T) {
	// A snapshot whose views describe an invalid or out-of-domain
	// configuration must yield Stay, not a panic.
	s := corda.Snapshot{Lo: config.View{0, 0}, Hi: config.View{0, 0}}
	if d := DecideFromSnapshot(s); d != corda.Stay {
		t.Errorf("decision on degenerate snapshot = %v", d)
	}
}

func ExampleComputePlan() {
	c := config.MustNew(9, 0, 2, 5) // rigid, supermin (1,2,3): q0 > 0
	p, _ := ComputePlan(c)
	fmt.Println(p.Rule)
	// Output: reduction0
}

// nodesInOrder lists the occupied nodes starting at the anchor and
// following its reading direction, so that nodes[i] sits between
// intervals q_{i−1} and q_i of the supermin view. Retained as a test
// helper; production code computes the same mapping index-wise without
// materializing the slice (see ComputePlan's nthNode).
func nodesInOrder(c config.Config, a config.Anchor) []int {
	sorted := c.Nodes()
	k := len(sorted)
	start := -1
	for i, u := range sorted {
		if u == a.Node {
			start = i
			break
		}
	}
	if start < 0 {
		panic("align: anchor not an occupied node")
	}
	out := make([]int, k)
	for j := 0; j < k; j++ {
		if a.Dir == ring.CW {
			out[j] = sorted[(start+j)%k]
		} else {
			out[j] = sorted[((start-j)%k+k)%k]
		}
	}
	return out
}
