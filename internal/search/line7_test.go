package search

import (
	"testing"

	"ringrobots/internal/config"
	"ringrobots/internal/corda"
)

// unguardedRingClearing reproduces Fig. 11 with line 7 transcribed
// literally (q0 > 0 instead of the implementation's q0 > 2), to document
// why the guard is necessary. See the line 7 comment in clearing.go; E5
// in cmd/experiments verifies the guarded rule.
type unguardedRingClearing struct{}

func (unguardedRingClearing) Name() string { return "ring-clearing-literal-line7" }

func (unguardedRingClearing) Compute(s corda.Snapshot) corda.Decision {
	c, err := config.FromIntervals(0, s.Lo)
	if err != nil {
		return corda.Stay
	}
	if ClassifyA(c) == NotInA {
		return corda.Stay // phase 1 irrelevant for this regression
	}
	for viewIsLo, w := range map[bool]config.View{true: s.Lo, false: s.Hi} {
		k := len(w)
		if k < 5 {
			continue
		}
		// Literal line 7: q0>0, q1=0, q2=1, qi=0 ∀i∈{3..k−2}, q_{k−1}>2.
		match := w[0] > 0 && w[1] == 0 && w[2] == 1 && w[k-1] > 2
		for i := 3; i <= k-2; i++ {
			if w[i] != 0 {
				match = false
			}
		}
		if match {
			if viewIsLo {
				return corda.TowardHi // towards q_{k−1} of the Lo view
			}
			return corda.TowardLo
		}
	}
	// All other rules as implemented.
	if d, ok := phase2Decision(s.Lo, true); ok {
		return d
	}
	if d, ok := phase2Decision(s.Hi, false); ok {
		return d
	}
	return corda.Stay
}

func TestLine7GuardRegression(t *testing.T) {
	// The A-d configuration for (k,n) = (5,11): S={0,1}, pair={3,4},
	// single robot at 8, two empty nodes between it and S.
	c := config.MustNew(11, 0, 1, 3, 4, 8)
	if got := ClassifyA(c); got != Ad {
		t.Fatalf("fixture classifies as %v, want A-d", got)
	}

	// With the literal line 7, the single robot is sent *away* from the
	// block: the configuration oscillates A-d ↔ A-d forever and the two
	// far edges are never cleared.
	w := corda.FromConfig(c, true)
	r := corda.NewRunner(w, unguardedRingClearing{})
	seen := map[string]int{}
	osc := 0
	for moves := 0; moves < 8; {
		moved, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !moved {
			continue
		}
		moves++
		key := w.Config().Canonical()
		seen[key]++
		if seen[key] > 1 {
			osc++
		}
		if got := ClassifyA(w.Config()); got != Ad {
			t.Fatalf("literal line 7 left A-d (%v) — regression scenario changed", got)
		}
	}
	if osc < 3 {
		t.Fatalf("expected an A-d ↔ A-d oscillation, distinct states seen: %v", seen)
	}

	// With the guarded implementation the same configuration progresses
	// A-d → A-e → A-a within two moves.
	w2 := corda.FromConfig(c, true)
	r2 := corda.NewRunner(w2, RingClearing{})
	classes := []AClass{}
	for moves := 0; moves < 2; {
		moved, err := r2.Step()
		if err != nil {
			t.Fatal(err)
		}
		if moved {
			moves++
			classes = append(classes, ClassifyA(w2.Config()))
		}
	}
	if classes[0] != Ae || classes[1] != Aa {
		t.Fatalf("guarded rule produced %v, want [A-e A-a]", classes)
	}
}

func TestPhase2ViewMatchesAgree(t *testing.T) {
	// Fig. 11 states some rules twice, once per reading direction (lines
	// 5/11 are A-b seen from the two sides). A robot may therefore match
	// on both of its views — but then both matches must direct the same
	// physical move, otherwise the algorithm would be ill-defined.
	for _, tc := range []struct{ n, k int }{{11, 5}, {12, 6}, {13, 7}, {14, 10}} {
		c, err := config.CStar(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3*(tc.n+5); step++ {
			w := corda.FromConfig(c, true)
			for id := 0; id < w.K(); id++ {
				snap, _ := w.Snapshot(id)
				dLo, loMatch := phase2Decision(snap.Lo, true)
				dHi, hiMatch := phase2Decision(snap.Hi, false)
				if loMatch && hiMatch && dLo != dHi {
					t.Fatalf("(%d,%d): robot %d gets contradictory decisions %v/%v in %v",
						tc.n, tc.k, id, dLo, dHi, c)
				}
			}
			c = stepPhase2(t, c)
		}
	}
}

func TestOpenCase510IsAmbiguous(t *testing.T) {
	// Why the paper leaves (k,n) = (5,10) open: in its A-d configuration
	// the long gap equals the 2-gap, so the single robot's two views
	// coincide — the model cannot direct it. We exhibit the symmetric
	// snapshot directly.
	c := config.MustNew(10, 0, 1, 3, 4, 7) // S={0,1}, pair={3,4}, r=7, gaps 1,2,2
	if got := ClassifyA(c); got != Ad && got != Ae {
		t.Logf("classification: %v", got)
	}
	w := corda.FromConfig(c, true)
	// Robot ids follow node order; the single robot at node 7 is id 4.
	snap, _ := w.Snapshot(4)
	if !snap.Symmetric() {
		t.Fatalf("expected the (5,10) A-d mover's views to coincide, got Lo=%v Hi=%v", snap.Lo, snap.Hi)
	}
}
