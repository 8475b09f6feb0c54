package feasibility

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// collectSuspendedCheckpoints drains mk()'s instance with a seeded,
// randomly varying budget, collecting the (serialized-and-restored)
// checkpoint of every suspension along the way — the randomized corpus
// the partition/merge round-trip properties quantify over.
func collectSuspendedCheckpoints(t *testing.T, mk func() *Solver, rng *rand.Rand, budgetLo, budgetHi int) []*Checkpoint {
	t.Helper()
	var out []*Checkpoint
	s := mk()
	s.MaxExpansions = budgetLo + rng.Intn(budgetHi-budgetLo)
	res, cp, err := s.SolveContext(context.Background())
	for err != nil {
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("unexpected suspension error: %v", err)
		}
		raw, merr := cp.MarshalBinary()
		if merr != nil {
			t.Fatal(merr)
		}
		restored, uerr := UnmarshalCheckpoint(raw)
		if uerr != nil {
			t.Fatal(uerr)
		}
		out = append(out, restored)
		if len(out) > 500 {
			t.Fatal("drain did not converge")
		}
		s = mk()
		s.MaxExpansions = budgetLo + rng.Intn(budgetHi-budgetLo)
		res, cp, err = s.Resume(context.Background(), restored)
	}
	_ = res
	return out
}

// TestPartitionMergeRoundTrip pins Merge(Partition(cp, k)) ≡ cp: for
// k ∈ {1, 2, 8} over randomized suspended checkpoints (varied budgets,
// both survivor-escalating and impossibility-bound instances, with and
// without pruning state), partitioning and immediately merging the
// untouched shards reproduces the original checkpoint byte-for-byte —
// frontier, node order, openKids, counters and credits.
func TestPartitionMergeRoundTrip(t *testing.T) {
	cases := []struct {
		n, k    int
		noPrune bool
	}{
		{7, 3, false}, {7, 4, false}, {8, 5, false}, {7, 4, true},
	}
	rng := rand.New(rand.NewSource(41))
	for _, tc := range cases {
		mk := func() *Solver {
			s := NewSolver(tc.n, tc.k)
			s.Workers = 1
			s.NoPrune = tc.noPrune
			return s
		}
		cps := collectSuspendedCheckpoints(t, mk, rng, 50, 400)
		if len(cps) == 0 {
			t.Fatalf("(k=%d,n=%d): budget never suspended the drain", tc.k, tc.n)
		}
		for ci, cp := range cps {
			want, err := cp.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for _, parts := range []int{1, 2, 8} {
				shards, err := cp.Partition(parts)
				if err != nil {
					t.Fatalf("(k=%d,n=%d) cp %d: Partition(%d): %v", tc.k, tc.n, ci, parts, err)
				}
				results := make([]ShardResult, len(shards))
				for i, sh := range shards {
					// Shard checkpoints must survive the journaled path too.
					raw, err := (&ShardResult{Shard: i, Suspended: sh}).MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					restored, err := UnmarshalShardResult(raw)
					if err != nil {
						t.Fatal(err)
					}
					results[i] = *restored
				}
				res, merged, err := cp.Merge(len(shards), results)
				if err != nil {
					t.Fatalf("(k=%d,n=%d) cp %d: Merge: %v", tc.k, tc.n, ci, err)
				}
				if res != nil || merged == nil {
					t.Fatalf("(k=%d,n=%d) cp %d: untouched merge produced a verdict", tc.k, tc.n, ci)
				}
				got, err := merged.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("(k=%d,n=%d) cp %d parts=%d: Merge(Partition(cp)) != cp (%d vs %d bytes)",
						tc.k, tc.n, ci, parts, len(got), len(want))
				}
			}
		}
		t.Logf("(k=%d,n=%d,noPrune=%v): %d randomized checkpoints round-tripped at k=1,2,8",
			tc.k, tc.n, tc.noPrune, len(cps))
	}
}

// runShardForTest resumes one shard checkpoint to its outcome under a
// single worker, classifying the result exactly as a drain-pool worker
// does (internal/drainpool).
func runShardForTest(t *testing.T, shard int, sh *Checkpoint, budget int) ShardResult {
	t.Helper()
	s, err := sh.NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 1
	s.StopAfterTier = true
	if budget > 0 {
		s.MaxExpansions = budget
	}
	res, cp, err := s.Resume(context.Background(), sh)
	r := ShardResult{Shard: shard, Counters: res}
	r.Counters.SurvivorTable = nil
	switch {
	case err == nil && res.Impossible:
		r.Refuted = true
		r.Prune = s.PruneExport()
	case err == nil && res.SurvivorTable != nil:
		r.Survivor = res.SurvivorTable
		r.Prune = s.PruneExport()
	case err != nil && cp != nil:
		r.Suspended = cp
	default:
		t.Fatalf("shard %d: unclassifiable outcome (err=%v, cp=%v)", shard, err, cp != nil)
	}
	return r
}

// shardedDrainForTest is an in-process mini-coordinator: partition,
// run every shard, merge — with the shard results duplicated and
// shuffled before each merge (at-least-once delivery in arbitrary
// order) — until the drain reaches a verdict.
func shardedDrainForTest(t *testing.T, ck *Checkpoint, shards, budget int, rng *rand.Rand) Result {
	t.Helper()
	for gen := 0; ; gen++ {
		if gen > 500 {
			t.Fatal("sharded drain did not converge")
		}
		parts, err := ck.Partition(shards)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]ShardResult, len(parts))
		for i, sh := range parts {
			results[i] = runShardForTest(t, i, sh, budget)
		}
		// At-least-once: redeliver a random shard's result, then shuffle.
		results = append(results, results[rng.Intn(len(results))])
		rng.Shuffle(len(results), func(i, j int) { results[i], results[j] = results[j], results[i] })
		res, next, err := ck.Merge(len(parts), results)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			return *res
		}
		ck = next
	}
}

// TestShardedDrainMatchesSingleProcess is the sharded equivalence
// contract: partition/run/merge generations — shards executed
// at-least-once, results merged in random permutations — reach the
// identical verdict and tier as an uninterrupted single-process solve,
// with a survivor (when one exists) that survives re-analysis.
// TablesExplored is NOT asserted across the shard cut: cross-shard
// credit timing and survivor cancellation make it schedule-dependent,
// the same caveat multi-worker resumes already carry.
func TestShardedDrainMatchesSingleProcess(t *testing.T) {
	cases := []struct {
		n, k   int
		budget int
	}{
		{7, 3, 200}, {7, 4, 150}, {8, 5, 400}, {6, 3, 0 /* unlimited: whole shards settle in one leg */},
	}
	rng := rand.New(rand.NewSource(1729))
	for _, tc := range cases {
		straight, err := NewSolver(tc.n, tc.k).Solve()
		if err != nil {
			t.Fatalf("(k=%d,n=%d) uninterrupted: %v", tc.k, tc.n, err)
		}
		root, err := RootCheckpoint(NewSolver(tc.n, tc.k))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4} {
			res := shardedDrainForTest(t, root, shards, tc.budget, rng)
			if res.Impossible != straight.Impossible || res.Tier != straight.Tier {
				t.Errorf("(k=%d,n=%d) shards=%d: verdict/tier (%v, %d) != uninterrupted (%v, %d)",
					tc.k, tc.n, shards, res.Impossible, res.Tier, straight.Impossible, straight.Tier)
			}
			if (res.SurvivorTable == nil) != (straight.SurvivorTable == nil) {
				t.Errorf("(k=%d,n=%d) shards=%d: survivor existence differs", tc.k, tc.n, shards)
			}
			if res.SurvivorTable != nil && !survivorHolds(NewSolver(tc.n, tc.k), res.Tier, res.SurvivorTable) {
				t.Errorf("(k=%d,n=%d) shards=%d: merged survivor does not survive re-analysis", tc.k, tc.n, shards)
			}
			if res.ExpansionUnits <= 0 {
				t.Errorf("(k=%d,n=%d) shards=%d: merged counters not accumulated", tc.k, tc.n, shards)
			}
		}
	}
}

// TestMergePermutationDeterministic pins that the merged continuation
// is a function of the result SET, not the delivery order: any
// permutation (with duplicates) of the same shard results merges to
// byte-identical next checkpoints.
func TestMergePermutationDeterministic(t *testing.T) {
	s := NewSolver(7, 3)
	s.Workers = 1
	root, err := RootCheckpoint(s)
	if err != nil {
		t.Fatal(err)
	}
	// One generation deep enough to have a multi-branch frontier.
	r0 := runShardForTest(t, 0, root, 150)
	if r0.Suspended == nil {
		t.Fatal("seed leg did not suspend; lower the budget")
	}
	parts, err := r0.Suspended.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]ShardResult, len(parts))
	for i, sh := range parts {
		results[i] = runShardForTest(t, i, sh, 120)
	}
	rng := rand.New(rand.NewSource(7))
	var want []byte
	for trial := 0; trial < 6; trial++ {
		perm := append([]ShardResult(nil), results...)
		perm = append(perm, perm[rng.Intn(len(perm))]) // duplicate delivery
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		res, next, err := r0.Suspended.Merge(len(parts), perm)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		if next != nil {
			if got, err = next.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		} else if got, err = MarshalResult(*res); err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: merge outcome differs under permutation", trial)
		}
	}
}

// TestMergeRefusesLostShard: at-least-once tolerates duplicates but a
// missing shard must fail loudly — a silently dropped shard would turn
// an undrained subtree into a bogus impossibility verdict.
func TestMergeRefusesLostShard(t *testing.T) {
	s := NewSolver(7, 3)
	s.Workers = 1
	root, err := RootCheckpoint(s)
	if err != nil {
		t.Fatal(err)
	}
	r0 := runShardForTest(t, 0, root, 150)
	if r0.Suspended == nil {
		t.Fatal("seed leg did not suspend")
	}
	parts, err := r0.Suspended.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 {
		t.Fatalf("frontier too small to partition: %d shards", len(parts))
	}
	var results []ShardResult
	for i, sh := range parts {
		if i == 1 {
			continue // shard 1 lost
		}
		results = append(results, runShardForTest(t, i, sh, 120))
	}
	_, _, err = r0.Suspended.Merge(len(parts), results)
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("merge with a lost shard: err = %v, want a shard-1 error", err)
	}
}

// TestRootCheckpointEquivalentToSolve: resuming the synthetic root
// checkpoint is the same drain as starting fresh — verdict, tier and
// (single-worker) TablesExplored all match, so a coordinator can treat
// fresh and resumed drains uniformly.
func TestRootCheckpointEquivalentToSolve(t *testing.T) {
	for _, c := range []struct{ n, k int }{{7, 3}, {6, 3}} {
		mk := func() *Solver {
			s := NewSolver(c.n, c.k)
			s.Workers = 1
			return s
		}
		straight, err := mk().Solve()
		if err != nil {
			t.Fatal(err)
		}
		root, err := RootCheckpoint(mk())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := root.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := UnmarshalCheckpoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		res, cp, err := mk().Resume(context.Background(), restored)
		if err != nil || cp != nil {
			t.Fatalf("(k=%d,n=%d) root resume: err=%v cp=%v", c.k, c.n, err, cp != nil)
		}
		checkSameOutcome(t, c.n, c.k, "root-checkpoint", res, straight)
		if st := restored.Stats(); st.TierCount == 0 || st.FrontierNodes != 1 {
			t.Errorf("root checkpoint stats: %+v", st)
		}
	}
}
