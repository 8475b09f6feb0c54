package feasibility

import (
	"context"
	"encoding/hex"
	"testing"
)

// TestInstanceKeyPinned pins the content addresses of two instances, so
// existing verdict stores keep serving their verdicts across changes to
// the Instance type: any edit to the canonical encoding must show up
// here.
func TestInstanceKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		inst Instance
		want string
	}{
		{Instance{N: 7, K: 3}, "e2e4568568217a6939e52a9ac61c38ac3223f7be9fef5bb6966a543f6ad0885d"},
		{Instance{N: 9, K: 5, MaxCycleLen: 16, PendingTiers: []int{0, 1, 2}}, "c5e1f0c0b75a2f96d0dad06725979a53c71ad6ccf83a6e463f83c383d8f0173e"},
	} {
		if got := hex.EncodeToString([]byte(tc.inst.Key())); got != tc.want {
			t.Errorf("%v: key %s, want %s", tc.inst, got, tc.want)
		}
	}
}

// TestMatchesRejectsOracleCheckpoint: a checkpoint written under a
// differential oracle mode is not the instance's checkpoint, even though
// the instance identity no longer carries the mode flags.
func TestMatchesRejectsOracleCheckpoint(t *testing.T) {
	for _, noPrune := range []bool{false, true} {
		s := NewSolver(7, 4)
		s.Workers = 1
		s.MaxExpansions = 100
		s.NoPrune = noPrune
		_, cp, err := s.SolveContext(context.Background())
		if cp == nil {
			t.Fatalf("noPrune=%v: budget %d did not suspend the solve (err %v)", noPrune, s.MaxExpansions, err)
		}
		if got := cp.Matches(Instance{N: 7, K: 4}); got == noPrune {
			t.Errorf("noPrune=%v: Matches = %v", noPrune, got)
		}
	}
}
