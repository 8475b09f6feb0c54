package feasibility

import (
	"context"
	"encoding/hex"
	"errors"
	"reflect"
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

// TestZeroCycleCapSolvesDefaultGame: a Solver whose MaxCycleLen is left
// at zero plays the game its InstanceOf reports — the default cap — so
// its Result and its key both agree with a solver that spells the cap
// out.
func TestZeroCycleCapSolvesDefaultGame(t *testing.T) {
	for _, c := range []struct{ n, k int }{{7, 4}, {8, 5}, {9, 4}} {
		solve := func(maxCycleLen int) (Result, string) {
			s := NewSolver(c.n, c.k)
			s.Workers = 1
			s.MaxCycleLen = maxCycleLen
			res, err := s.Solve()
			if err != nil {
				t.Fatalf("(k=%d,n=%d) MaxCycleLen %d: %v", c.k, c.n, maxCycleLen, err)
			}
			return res, s.InstanceOf().Key()
		}
		zero, zeroKey := solve(0)
		spelled, spelledKey := solve(24)
		if zeroKey != spelledKey {
			t.Errorf("(k=%d,n=%d): MaxCycleLen 0 and 24 have different instance keys", c.k, c.n)
		}
		if !reflect.DeepEqual(zero, spelled) {
			t.Errorf("(k=%d,n=%d): MaxCycleLen 0 gives impossible=%v tier=%d tables=%d, 24 gives impossible=%v tier=%d tables=%d",
				c.k, c.n, zero.Impossible, zero.Tier, zero.TablesExplored, spelled.Impossible, spelled.Tier, spelled.TablesExplored)
		}
	}
}

// TestCheckpointIdentityRefused changes one part of a checkpoint's
// identity per case and checks that every consumer of the identity
// refuses it: Resume on the original solver, Matches on the original
// instance, and Merge of a suspended shard carrying the change into the
// original checkpoint.
func TestCheckpointIdentityRefused(t *testing.T) {
	mk := func() *Solver {
		s := NewSolver(7, 3)
		s.Workers = 1
		return s
	}
	s := mk()
	s.MaxExpansions = 400
	_, base, err := s.SolveContext(context.Background())
	if !errors.Is(err, ErrBudget) || base == nil {
		t.Fatalf("expected a budget suspension with checkpoint, got err=%v", err)
	}
	inst := Instance{N: 7, K: 3}
	ctx := context.Background()
	if !base.Matches(inst) {
		t.Fatal("Matches refused the unchanged checkpoint")
	}
	if _, _, err := base.Merge(1, []ShardResult{{Shard: 0, Suspended: base}}); err != nil {
		t.Fatalf("Merge refused the unchanged checkpoint: %v", err)
	}
	for _, tc := range []struct {
		name   string
		change func(ck *Checkpoint)
	}{
		{"n", func(ck *Checkpoint) { ck.inst.N = 8 }},
		{"k", func(ck *Checkpoint) { ck.inst.K = 4 }},
		{"cycle cap", func(ck *Checkpoint) { ck.inst.MaxCycleLen = 16 }},
		{"ladder", func(ck *Checkpoint) { ck.inst.PendingTiers = []int{0, 3} }},
		{"NoQuotient", func(ck *Checkpoint) { ck.modes.noQuotient = true }},
		{"NoIncremental", func(ck *Checkpoint) { ck.modes.noIncremental = true }},
		{"NoPrune", func(ck *Checkpoint) { ck.modes.noPrune = true }},
		{"version", func(ck *Checkpoint) { ck.version = "ringrobots-solver-0" }},
	} {
		changed := *base
		tc.change(&changed)
		if _, _, err := mk().Resume(ctx, &changed); err == nil {
			t.Errorf("%s: Resume accepted the changed checkpoint", tc.name)
		}
		if changed.Matches(inst) {
			t.Errorf("%s: Matches accepted the changed checkpoint", tc.name)
		}
		if _, _, err := base.Merge(1, []ShardResult{{Shard: 0, Suspended: &changed}}); err == nil {
			t.Errorf("%s: Merge accepted a suspended shard with the change", tc.name)
		}
	}
}
