package search

import (
	"fmt"

	"ringrobots/internal/align"
	"ringrobots/internal/config"
	"ringrobots/internal/corda"
)

// AClass labels the configuration families A-a … A-f of §4.3 (Fig. 12)
// used by the second phase of Algorithm Ring Clearing.
type AClass int

const (
	// NotInA marks configurations outside the family A, handled by Align.
	NotInA AClass = iota
	// Aa: a block of k−2 robots, one empty node, then two adjacent robots.
	Aa
	// Ab: a block of k−2, one empty node, a single robot, and another
	// single robot not adjacent to anything.
	Ab
	// Ac: a block of k−2, one empty node, a single robot; the second
	// single robot two empty nodes from the block's far side.
	Ac
	// Ad: a block of k−3, one empty node, two adjacent robots; a single
	// robot two empty nodes from the block's far side.
	Ad
	// Ae: like Ad with the single robot one empty node from the block.
	Ae
	// Af: asymmetric configurations with a block of k−1 and one single
	// robot (contains C*).
	Af
)

func (a AClass) String() string {
	switch a {
	case NotInA:
		return "not-in-A"
	case Aa:
		return "A-a"
	case Ab:
		return "A-b"
	case Ac:
		return "A-c"
	case Ad:
		return "A-d"
	case Ae:
		return "A-e"
	case Af:
		return "A-f"
	}
	return fmt.Sprintf("AClass(%d)", int(a))
}

// arc is one block of an oriented block/gap reading of a configuration:
// the block length followed by the gap to the next block in reading order.
type arc struct{ blockLen, gap int }

// orientedReadings returns every rotation of the block/gap sequence in
// both reading directions, so structural patterns can be matched without
// caring about the anonymous ring's orientation.
func orientedReadings(c config.Config) [][]arc {
	runs := c.Runs()
	m := len(runs)
	cw := make([]arc, m)
	for i, r := range runs {
		cw[i] = arc{r.Len, r.GapAfter}
	}
	// Counter-clockwise reading starting from block 0: blocks in reverse
	// cyclic order, each followed by the gap on its counter-clockwise
	// side.
	ccw := make([]arc, m)
	for i := 0; i < m; i++ {
		ccw[i] = arc{cw[(m-i)%m].blockLen, cw[(m-i-1+m)%m].gap}
	}
	out := make([][]arc, 0, 2*m)
	for s := 0; s < m; s++ {
		rotCW := make([]arc, m)
		rotCCW := make([]arc, m)
		for j := 0; j < m; j++ {
			rotCW[j] = cw[(s+j)%m]
			rotCCW[j] = ccw[(s+j)%m]
		}
		out = append(out, rotCW, rotCCW)
	}
	return out
}

// ClassifyA determines the A-family of a configuration from its block
// structure. It is the global (whole-configuration) counterpart of the
// per-robot view conditions in Fig. 11 and is used by tests and by phase
// detection.
//
// Note the origin of the paper's (k,n) = (5,10) exclusion: there the A-d
// family's two size-2 blocks become interchangeable (the gap between pair
// and single equals 2, mirroring the single-to-block gap), making the
// roles — hence the mover — ambiguous at the view level.
func ClassifyA(c config.Config) AClass {
	k := c.K()
	for _, seq := range orientedReadings(c) {
		switch len(seq) {
		case 2:
			a, b := seq[0], seq[1]
			// A-a: (k−2 block) —1— (pair) —G—, G > 2 for k < n−3.
			if a.blockLen == k-2 && a.gap == 1 && b.blockLen == 2 && b.gap > 2 {
				return Aa
			}
			// A-f: (k−1 block) —x— (single) —y— with x ≠ y (asymmetric).
			if a.blockLen == k-1 && b.blockLen == 1 && a.gap != b.gap {
				return Af
			}
		case 3:
			a, b, cc := seq[0], seq[1], seq[2]
			// A-b: (k−2) —1— (r′) —x— (r) —y—, y > 2.
			if a.blockLen == k-2 && a.gap == 1 && b.blockLen == 1 && cc.blockLen == 1 && cc.gap > 2 {
				return Ab
			}
			// A-c: same with y = 2.
			if a.blockLen == k-2 && a.gap == 1 && b.blockLen == 1 && cc.blockLen == 1 && cc.gap == 2 {
				return Ac
			}
			// A-d: (k−3) —1— (pair) —L— (single) —2—.
			if a.blockLen == k-3 && a.gap == 1 && b.blockLen == 2 && cc.blockLen == 1 && cc.gap == 2 {
				return Ad
			}
			// A-e: (k−3) —1— (pair) —L— (single) —1—.
			if a.blockLen == k-3 && a.gap == 1 && b.blockLen == 2 && cc.blockLen == 1 && cc.gap == 1 {
				return Ae
			}
		}
	}
	return NotInA
}

// RingClearing is the per-robot algorithm of Fig. 11: phase 1 runs Align
// until the configuration enters the family A; phase 2 cycles through
// A-a → A-b → … → A-e forever, clearing and exploring the ring
// (Theorem 6). Valid for n ≥ 10 and 5 ≤ k < n−3, except (k,n) = (5,10).
type RingClearing struct{}

// Name implements corda.Algorithm.
func (RingClearing) Name() string { return "ring-clearing" }

// Validate checks Theorem 6's parameter range.
func (RingClearing) Validate(n, k int) error {
	if n < 10 {
		return fmt.Errorf("search: ring clearing needs n >= 10, got n=%d (impossible for n <= 9, Theorem 5)", n)
	}
	if k < 5 {
		return fmt.Errorf("search: ring clearing needs k >= 5, got k=%d (impossible for k <= 3; k=4 is open)", k)
	}
	if k >= n-3 {
		return fmt.Errorf("search: ring clearing needs k < n-3, got k=%d, n=%d (use NminusThree for k=n-3)", k, n)
	}
	if k == 5 && n == 10 {
		return fmt.Errorf("search: the case k=5, n=10 is open in the paper and unsupported")
	}
	return nil
}

// Compute implements corda.Algorithm.
func (RingClearing) Compute(s corda.Snapshot) corda.Decision {
	c, err := config.FromIntervals(0, s.Lo)
	if err != nil {
		return corda.Stay
	}
	if ClassifyA(c) == NotInA {
		return align.DecideReconstructed(c)
	}
	// Phase 2: evaluate the conditions of Fig. 11 on both views. A match
	// on a view W means: "move towards q_{k−1}" = against W's reading
	// direction, "move towards q0" = along W's reading direction.
	if d, ok := phase2Decision(s.Lo, true); ok {
		return d
	}
	if d, ok := phase2Decision(s.Hi, false); ok {
		return d
	}
	return corda.Stay
}

// phase2Decision evaluates the movement conditions of Fig. 11 on one view.
// viewIsLo reports whether the view is the snapshot's Lo view; the
// returned decision is expressed in Lo/Hi terms.
func phase2Decision(w config.View, viewIsLo bool) (corda.Decision, bool) {
	k := len(w)
	if k < 5 {
		return corda.Stay, false
	}
	towardQ0 := corda.TowardLo    // along the reading direction of w
	towardQLast := corda.TowardHi // against it
	if !viewIsLo {
		towardQ0, towardQLast = corda.TowardHi, corda.TowardLo
	}

	allZero := func(from, to int) bool { // inclusive range check
		for i := from; i <= to; i++ {
			if w[i] != 0 {
				return false
			}
		}
		return true
	}

	// Line 4 (A-a): q0=0, q1=1, qi=0 ∀i∈{2..k−2}, q_{k−1}>2.
	if w[0] == 0 && w[1] == 1 && allZero(2, k-2) && w[k-1] > 2 {
		return towardQLast, true
	}
	// Line 5 (A-b): q0>0, q_{k−1}>2, q1=1, qi=0 ∀i∈{2..k−2}.
	if w[0] > 0 && w[k-1] > 2 && w[1] == 1 && allZero(2, k-2) {
		return towardQLast, true
	}
	// Line 6 (A-c): qi=0 ∀i∈{0..k−4}, q_{k−3}=2, q_{k−2}>0, q_{k−1}=1.
	if allZero(0, k-4) && w[k-3] == 2 && w[k-2] > 0 && w[k-1] == 1 {
		return towardQLast, true
	}
	// Line 7 (A-d): q0>0, q1=0, q2=1, qi=0 ∀i∈{3..k−2}, q_{k−1}>2.
	// Deviation from the paper's literal "q0 > 0": for k=5 that condition
	// also matches the A-d and A-e movers' toward-S views (q0 ∈ {1,2}),
	// colliding with lines 12–13 and sending the mover *away* from the
	// block (observed as an A-d ↔ A-d oscillation that never clears the
	// ring). Lines 12–13 are the operative A-d/A-e rules for every k in
	// Theorem 6's range, so line 7 is restricted to q0 > 2, where it
	// never conflicts. TestLine7GuardRegression replays the oscillation.
	if w[0] > 2 && w[1] == 0 && w[2] == 1 && allZero(3, k-2) && w[k-1] > 2 {
		return towardQLast, true
	}
	// Line 8 (A-f): qi=0 ∀i∈{0..k−3}, q_{k−2}>q_{k−1}>0, q_{k−2}+q_{k−1}>3.
	if allZero(0, k-3) && w[k-2] > w[k-1] && w[k-1] > 0 && w[k-2]+w[k-1] > 3 {
		return towardQLast, true
	}
	// Line 11 (A-b mirrored): q0>2, q_{k−1}>0, qi=0 ∀i∈{1..k−3}, q_{k−2}=1.
	if w[0] > 2 && w[k-1] > 0 && allZero(1, k-3) && w[k-2] == 1 {
		return towardQ0, true
	}
	// Line 12 (A-d mirrored): q0=2, qi=0 ∀i∈{1..k−4}, q_{k−3}=1, q_{k−2}=0, q_{k−1}>0.
	if w[0] == 2 && allZero(1, k-4) && w[k-3] == 1 && w[k-2] == 0 && w[k-1] > 0 {
		return towardQ0, true
	}
	// Line 13 (A-e): q0=1, qi=0 ∀i∈{1..k−4}, q_{k−3}=1, q_{k−2}=0, q_{k−1}>1.
	if w[0] == 1 && allZero(1, k-4) && w[k-3] == 1 && w[k-2] == 0 && w[k-1] > 1 {
		return towardQ0, true
	}
	return corda.Stay, false
}
