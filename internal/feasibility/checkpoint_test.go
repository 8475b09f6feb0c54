package feasibility

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"time"
)

// drainToVerdict runs a fresh solver from mk under its (deliberately
// starved) budget, then chains Resume calls — marshaling and
// unmarshaling the checkpoint at every hop, since the journaled path is
// the one that must work — until the drain reaches a verdict. It
// returns the final result and the number of resumes taken.
func drainToVerdict(t *testing.T, mk func() *Solver) (Result, int) {
	t.Helper()
	s := mk()
	res, cp, err := s.SolveContext(context.Background())
	resumes := 0
	for err != nil {
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("resume %d: unexpected error: %v", resumes, err)
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("resume %d: budget abort not wrapped in *BudgetError: %v", resumes, err)
		}
		if be.Units <= 0 {
			t.Fatalf("resume %d: BudgetError reports %d units spent", resumes, be.Units)
		}
		if cp == nil {
			t.Fatalf("resume %d: budget abort returned no checkpoint", resumes)
		}
		raw, merr := cp.MarshalBinary()
		if merr != nil {
			t.Fatalf("resume %d: marshal: %v", resumes, merr)
		}
		restored, uerr := UnmarshalCheckpoint(raw)
		if uerr != nil {
			t.Fatalf("resume %d: unmarshal: %v", resumes, uerr)
		}
		if resumes++; resumes > 500 {
			t.Fatalf("drain did not converge after %d resumes (budget below the cost of a single branch?)", resumes)
		}
		s = mk()
		res, cp, err = s.Resume(context.Background(), restored)
	}
	if cp != nil {
		t.Fatalf("verdict run still returned a checkpoint")
	}
	return res, resumes
}

func checkSameOutcome(t *testing.T, n, k int, label string, got, want Result) {
	t.Helper()
	if got.Impossible != want.Impossible || got.Tier != want.Tier {
		t.Errorf("(k=%d,n=%d) %s: verdict/tier (%v, %d) != uninterrupted (%v, %d)",
			k, n, label, got.Impossible, got.Tier, want.Impossible, want.Tier)
	}
	if got.TablesExplored != want.TablesExplored {
		t.Errorf("(k=%d,n=%d) %s: TablesExplored %d != uninterrupted %d",
			k, n, label, got.TablesExplored, want.TablesExplored)
	}
	if (got.SurvivorTable == nil) != (want.SurvivorTable == nil) {
		t.Errorf("(k=%d,n=%d) %s: survivor existence differs from uninterrupted run", k, n, label)
	}
	if got.SurvivorTable != nil && !survivorHolds(NewSolver(n, k), got.Tier, got.SurvivorTable) {
		t.Errorf("(k=%d,n=%d) %s: reported survivor does not survive re-analysis", k, n, label)
	}
}

// TestResumeAfterBudgetMatchesUninterrupted is the core crash-
// equivalence contract: a single-worker drain suspended by budget
// exhaustion and resumed (through serialized checkpoints) any number of
// times reaches the same verdict, tier, TablesExplored and a valid
// survivor, exactly as one uninterrupted run. Covers both impossibility
// verdicts and tier-escalating survivor cases.
func TestResumeAfterBudgetMatchesUninterrupted(t *testing.T) {
	cases := []struct {
		n, k    int
		budget  int
		noPrune bool
	}{
		// Budgets are a small fraction of each drain's total expansion
		// units, so every case suspends and resumes several times. The
		// NoPrune variant drains a much larger tree through the same
		// machinery (and exercises checkpoints without pruning state).
		{7, 3, 100, false}, {7, 4, 100, false}, {8, 5, 300, false},
		{7, 4, 300, true},
	}
	for _, tc := range cases {
		mk := func() *Solver {
			s := NewSolver(tc.n, tc.k)
			s.Workers = 1
			s.MaxExpansions = tc.budget
			s.NoPrune = tc.noPrune
			return s
		}
		full := mk()
		full.MaxExpansions = NewSolver(tc.n, tc.k).MaxExpansions
		straight, err := full.Solve()
		if err != nil {
			t.Fatalf("(k=%d,n=%d) uninterrupted: %v", tc.k, tc.n, err)
		}
		res, resumes := drainToVerdict(t, mk)
		checkSameOutcome(t, tc.n, tc.k, "budget-resume", res, straight)
		if resumes == 0 {
			t.Errorf("(k=%d,n=%d): budget %d never suspended the drain", tc.k, tc.n, tc.budget)
		}
		if res.ExpansionUnits <= 0 {
			t.Errorf("(k=%d,n=%d): cumulative ExpansionUnits not populated: %d", tc.k, tc.n, res.ExpansionUnits)
		}
		t.Logf("(k=%d,n=%d,noPrune=%v): %d resumes, %d tables, %d cumulative units",
			tc.k, tc.n, tc.noPrune, resumes, res.TablesExplored, res.ExpansionUnits)
	}
}

// TestResumeParallelWorkersVerdict pins the weaker multi-worker
// contract: a drain suspended under one worker count and resumed under
// another still reaches the same verdict and tier with a valid
// survivor (TablesExplored is schedule-dependent in parallel mode).
func TestResumeParallelWorkersVerdict(t *testing.T) {
	cases := []struct {
		n, k   int
		budget int
	}{{7, 3, 150}, {8, 5, 400}}
	for _, tc := range cases {
		straight := solveWorkers(t, tc.n, tc.k, 1)
		workers := 1
		res, _ := drainToVerdict(t, func() *Solver {
			s := NewSolver(tc.n, tc.k)
			s.Workers = workers
			s.MaxExpansions = tc.budget
			workers = 5 - workers // alternate 1 and 4 workers across resumes
			return s
		})
		if res.Impossible != straight.Impossible || res.Tier != straight.Tier {
			t.Errorf("(k=%d,n=%d) alternating workers: verdict/tier (%v, %d) != uninterrupted (%v, %d)",
				tc.k, tc.n, res.Impossible, res.Tier, straight.Impossible, straight.Tier)
		}
		if (res.SurvivorTable == nil) != (straight.SurvivorTable == nil) {
			t.Errorf("(k=%d,n=%d) alternating workers: survivor existence differs", tc.k, tc.n)
		}
		if res.SurvivorTable != nil && !survivorHolds(NewSolver(tc.n, tc.k), res.Tier, res.SurvivorTable) {
			t.Errorf("(k=%d,n=%d) alternating workers: survivor does not survive re-analysis", tc.k, tc.n)
		}
	}
}

// TestPeriodicCheckpointResume simulates a crash at every periodic
// checkpoint: a single-worker solve journals a checkpoint every few
// branches; resuming from each saved checkpoint must reach the same
// verdict, tier and TablesExplored as the uninterrupted run — the
// resume-from-kill-9 guarantee, minus the subprocess (fault_test.go
// adds the real SIGKILL).
func TestPeriodicCheckpointResume(t *testing.T) {
	cases := []struct{ n, k int }{{7, 3}, {7, 4}, {8, 5}}
	for _, tc := range cases {
		straight := solveWorkers(t, tc.n, tc.k, 1)
		var saved [][]byte
		s := NewSolver(tc.n, tc.k)
		s.Workers = 1
		s.CheckpointEvery = 3
		s.OnCheckpoint = func(cp *Checkpoint) error {
			raw, err := cp.MarshalBinary()
			if err != nil {
				return err
			}
			saved = append(saved, raw)
			return nil
		}
		res, cp, err := s.SolveContext(context.Background())
		if err != nil || cp != nil {
			t.Fatalf("(k=%d,n=%d): checkpointing solve failed: %v (cp=%v)", tc.k, tc.n, err, cp != nil)
		}
		// Periodic quiescing must not perturb the search itself.
		checkSameOutcome(t, tc.n, tc.k, "with-checkpointing", res, straight)
		if len(saved) == 0 {
			t.Fatalf("(k=%d,n=%d): no periodic checkpoints taken", tc.k, tc.n)
		}
		// Resume from several crash points: the first checkpoint, a
		// middle one, and the last.
		for _, idx := range []int{0, len(saved) / 2, len(saved) - 1} {
			ck, uerr := UnmarshalCheckpoint(saved[idx])
			if uerr != nil {
				t.Fatalf("(k=%d,n=%d) checkpoint %d: unmarshal: %v", tc.k, tc.n, idx, uerr)
			}
			s2 := NewSolver(tc.n, tc.k)
			s2.Workers = 1
			res2, cp2, err2 := s2.Resume(context.Background(), ck)
			if err2 != nil || cp2 != nil {
				t.Fatalf("(k=%d,n=%d) checkpoint %d: resume failed: %v", tc.k, tc.n, idx, err2)
			}
			checkSameOutcome(t, tc.n, tc.k, "crash-resume", res2, straight)
		}
		t.Logf("(k=%d,n=%d): %d periodic checkpoints", tc.k, tc.n, len(saved))
	}
}

// TestOnCheckpointErrorAborts pins the callback contract: an error from
// OnCheckpoint aborts the solve with that error (no checkpoint
// returned — the callback already holds the latest one).
func TestOnCheckpointErrorAborts(t *testing.T) {
	sentinel := errors.New("journal full")
	s := NewSolver(7, 4)
	s.Workers = 1
	s.CheckpointEvery = 2
	calls := 0
	s.OnCheckpoint = func(*Checkpoint) error {
		if calls++; calls == 3 {
			return sentinel
		}
		return nil
	}
	_, cp, err := s.SolveContext(context.Background())
	if !errors.Is(err, sentinel) {
		t.Fatalf("solve returned %v, want the OnCheckpoint error", err)
	}
	if cp != nil {
		t.Fatalf("OnCheckpoint abort returned a checkpoint")
	}
	if calls != 3 {
		t.Fatalf("OnCheckpoint called %d times after erroring on call 3", calls)
	}
}

// TestContextCancelSuspends checks clean suspension on cancellation: a
// cancelled solve returns ctx.Err() plus a resumable checkpoint, and
// the resumed drain reaches the uninterrupted verdict and tier.
func TestContextCancelSuspends(t *testing.T) {
	straight := solveWorkers(t, 7, 3, 1)
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSolver(7, 3)
	s.Workers = 1
	s.BranchHook = func(done int64) {
		if done == 20 {
			cancel()
			// The context watcher lands the abort asynchronously; hold
			// the worker here until it has, so the suspension point is
			// deterministic for the assertions below.
			<-ctx.Done()
			time.Sleep(50 * time.Millisecond)
		}
	}
	res, cp, err := s.SolveContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v", err)
	}
	if cp == nil {
		t.Fatalf("cancelled solve returned no checkpoint")
	}
	if res.TablesExplored >= straight.TablesExplored {
		t.Fatalf("cancelled solve explored %d tables, full run %d", res.TablesExplored, straight.TablesExplored)
	}
	s2 := NewSolver(7, 3)
	s2.Workers = 1
	res2, cp2, err2 := s2.Resume(context.Background(), cp)
	if err2 != nil || cp2 != nil {
		t.Fatalf("resume after cancel failed: %v", err2)
	}
	// Cancellation can interrupt a refutation-closure cascade partway,
	// so only verdict-level equivalence is promised (the checkpoint
	// docs spell this out); TablesExplored equality is asserted only
	// for budget and periodic-checkpoint suspensions above.
	if res2.Impossible != straight.Impossible || res2.Tier != straight.Tier {
		t.Errorf("resume after cancel: verdict/tier (%v, %d) != uninterrupted (%v, %d)",
			res2.Impossible, res2.Tier, straight.Impossible, straight.Tier)
	}
	if res2.SurvivorTable != nil && !survivorHolds(NewSolver(7, 3), res2.Tier, res2.SurvivorTable) {
		t.Errorf("resume after cancel: survivor does not survive re-analysis")
	}
}

// TestCheckpointMarshalDeterministic pins the encoding: marshaling the
// same checkpoint twice, and re-marshaling after an unmarshal round
// trip, must produce identical bytes (the fault suite diffs journal
// records across runs).
func TestCheckpointMarshalDeterministic(t *testing.T) {
	s := NewSolver(7, 3)
	s.Workers = 1
	s.MaxExpansions = 400
	_, cp, err := s.SolveContext(context.Background())
	if !errors.Is(err, ErrBudget) || cp == nil {
		t.Fatalf("expected a budget suspension with checkpoint, got err=%v cp=%v", err, cp != nil)
	}
	a, err := cp.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	b, err := cp.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two marshals of one checkpoint differ")
	}
	rt, err := UnmarshalCheckpoint(a)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	c, err := rt.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("marshal/unmarshal/marshal round trip is not byte-identical")
	}
	st := cp.Stats()
	if st.Version != SolverVersion || st.N != 7 || st.K != 3 || st.FrontierNodes == 0 {
		t.Fatalf("implausible checkpoint stats: %+v", st)
	}
	if st.FrontierDepthMin < 0 || st.FrontierDepthMax < st.FrontierDepthMin {
		t.Fatalf("implausible frontier depths: %+v", st)
	}
}

// TestResumeValidation pins validateFor: checkpoints from a different
// solver version, ring, mode set or tier ladder — and structurally
// empty or corrupt ones — must be refused, never silently resumed.
func TestResumeValidation(t *testing.T) {
	s := NewSolver(7, 3)
	s.Workers = 1
	s.MaxExpansions = 400
	_, cp, err := s.SolveContext(context.Background())
	if !errors.Is(err, ErrBudget) || cp == nil {
		t.Fatalf("expected a budget suspension with checkpoint, got err=%v", err)
	}
	ctx := context.Background()
	reject := func(label string, target *Solver, ck *Checkpoint) {
		t.Helper()
		if _, _, rerr := target.Resume(ctx, ck); rerr == nil {
			t.Errorf("%s: Resume accepted an incompatible checkpoint", label)
		}
	}
	reject("wrong n", NewSolver(8, 3), cp)
	reject("wrong k", NewSolver(7, 4), cp)
	oracle := NewSolver(7, 3)
	oracle.NoQuotient = true
	reject("mode mismatch", oracle, cp)
	ladder := NewSolver(7, 3)
	ladder.PendingTiers = []int{0}
	reject("tier ladder mismatch", ladder, cp)
	shortCycles := NewSolver(7, 3)
	shortCycles.MaxCycleLen = 5
	reject("MaxCycleLen mismatch", shortCycles, cp)

	stale := *cp
	stale.version = "ringrobots-solver-0"
	reject("stale version", NewSolver(7, 3), &stale)
	empty := *cp
	empty.frontier = nil
	reject("empty frontier", NewSolver(7, 3), &empty)

	raw, _ := cp.MarshalBinary()
	if _, uerr := UnmarshalCheckpoint(raw[:len(raw)/2]); uerr == nil {
		t.Errorf("truncated checkpoint decoded without error")
	}
	if _, uerr := UnmarshalCheckpoint(append(append([]byte(nil), raw...), 0)); uerr == nil {
		t.Errorf("trailing garbage decoded without error")
	}
	if _, uerr := UnmarshalCheckpoint([]byte("XXCP")); uerr == nil {
		t.Errorf("bad magic decoded without error")
	}
}

// TestCheckpointBytesPinned pins the SHA-256 of the concatenated
// checkpoint byte streams of single-worker drains: every periodic
// OnCheckpoint body in order, and for the budget chain also each
// suspension checkpoint, whose legs resume from the decoded bytes and
// so carry imported credits and nogoods into their own exports. The
// digests were recorded before the search read its table and credits
// by observation id; how the searcher stores those must not change a
// byte of what it journals. The (11,6) and (10,3) chains were recorded
// before lasso checks were memoized: (11,6)'s budget trips three times
// inside a lasso hunt, so a memo hit that charged other than the
// check's units would move those trips and the bytes after them.
// (10,3)'s cheap branches trip only at branch-boundary flushes, which
// still sum every unit the hunts charged.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n, k, every  int
		budget       int
		cycle        int
		wantSuspends int
		want         string
	}{
		{"8,5/every=4", 8, 5, 4, 0, 0, 0, "6cb8bdba065a23944982fb868f8c0f6c1ba994ee0ca0f9bed012d32e745d4c43"},
		{"9,5/every=8", 9, 5, 8, 0, 0, 0, "eaf355df6366b375cf0d8da4c508bf933a3b55e4463c95c2082e7a4afb4ec6e4"},
		{"9,5/budget=5000/every=16", 9, 5, 16, 5000, 0, 13, "2ad2cefdfb6c854015a604f7ea7303e497013a32835999f69fdf33bf969e036e"},
		{"11,6/budget=20000/every=64", 11, 6, 64, 20000, 0, 29, "766d050c9c653763ca75224596309a1b9b335799500b4f15b7c5e77f131f23c1"},
		{"10,3/cycle=12/budget=5000/every=16", 10, 3, 16, 5000, 12, 19, "20520c0b155f111916bcafd08895650f817fea6335e3be73785b13bd9c04988e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			mk := func() *Solver {
				s := NewSolver(tc.n, tc.k)
				s.Workers = 1
				if tc.budget > 0 {
					s.MaxExpansions = tc.budget
				}
				if tc.cycle > 0 {
					s.MaxCycleLen = tc.cycle
				}
				s.CheckpointEvery = tc.every
				s.OnCheckpoint = func(cp *Checkpoint) error {
					raw, err := cp.MarshalBinary()
					h.Write(raw)
					return err
				}
				return s
			}
			res, cp, err := mk().SolveContext(context.Background())
			suspends := 0
			for errors.Is(err, ErrBudget) && cp != nil && suspends < 100 {
				raw, merr := cp.MarshalBinary()
				if merr != nil {
					t.Fatal(merr)
				}
				h.Write(raw)
				restored, uerr := UnmarshalCheckpoint(raw)
				if uerr != nil {
					t.Fatal(uerr)
				}
				suspends++
				res, cp, err = mk().Resume(context.Background(), restored)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%s: %d suspensions, %d tables, digest %s", tc.name, suspends, res.TablesExplored, got)
			if suspends != tc.wantSuspends || got != tc.want {
				t.Errorf("checkpoint stream: %d suspensions, sha256 %s; pinned %d, %s", suspends, got, tc.wantSuspends, tc.want)
			}
		})
	}
}
