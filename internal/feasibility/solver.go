// Package feasibility mechanizes the paper's impossibility results
// (§4.2): a strategy-synthesis game solver proving that no min-CORDA
// algorithm solves exclusive perpetual graph searching for given (k, n),
// and a configuration-transition generator regenerating Figures 4–9.
//
// # The game
//
// An oblivious, anonymous, uniform algorithm is exactly a decision table
// from observations (the unordered pair of directional views a robot
// perceives) to decisions (stay / move along the smaller view / move
// along the larger view / adversary-resolved move when the views
// coincide). The solver plays the following game:
//
//   - The algorithm player commits table entries lazily, the first time
//     the adversary activates a robot whose observation is not yet in the
//     table (entries are global: once fixed, every later activation with
//     the same observation reuses them — obliviousness).
//   - The adversary picks the initial configuration, interleaves the
//     Look+Compute and Move halves of robot cycles arbitrarily (full
//     asynchrony: a computed move can be held pending while other robots
//     act — Theorem 5's (5,9) case needs exactly this), and resolves the
//     directions of robots whose two views coincide.
//
// The adversary wins if it forces a collision (a move onto an occupied
// node), or an infinite fair execution in which the ring is completely
// clear at most finitely often: concretely, a reachable lasso whose loop
// can be scheduled fairly (every robot completes Look-Compute-Move cycles
// infinitely often) and whose contamination evolution — simulated
// faithfully from the fully-contaminated initial ring through the lasso's
// stem — never passes the all-edges-clear state once looping. If the
// adversary wins against every completion of the table, no oblivious
// algorithm solves exclusive perpetual graph searching for that (k, n).
//
// # Architecture
//
// The state space is (occupied node set, pending moves), packed into a
// 192-bit comparable value supporting rings up to n = 32. The branches
// of the decision-table search are independent subproblems: Solve
// dispatches them to a bounded worker pool over a shared LIFO queue,
// with copy-on-write table chains (siblings share their prefix) and
// fail-fast cancellation the moment any worker finds a surviving table.
// Per-configuration observations are memoized in a sharded concurrent
// cache keyed by occupied mask, shared by all branches and tiers. Each
// worker owns a state-interning search engine (state → dense id,
// slice-backed adjacency, bitmask edges and contamination) whose buffers
// are reused across all branches the worker processes — see searcher.go.
//
// The ring is anonymous and unoriented, so the game is invariant under
// its 2n dihedral isometries: by default every state is canonicalized
// (bitmask Booth kernel from internal/config, pending register as
// tie-break) before interning, compressing each branch's graph by up to
// 2n× and keying the observation cache by canonical masks only. Edges
// record the isometry that renamed their target; the starvation-lasso
// checks compose those records to lift quotient cycles back to genuine
// executions — see quotient.go. Solver.NoQuotient retains the verbatim
// searcher as the differential oracle. For the paper's finite cases
// (n ≤ 9) the per-branch graphs are small enough for exhaustive search.
//
// Sibling branches differ from their parent by exactly one table entry,
// so by default a branching analysis is published as a snapshot and
// each child re-expands only the frontier its new entry unlocks,
// replaying stem contaminations canonically and re-hunting starvation
// lassos only in components the entry could have changed — see
// incremental.go. Solver.NoIncremental retains full re-analysis as the
// second differential oracle. The state interner behind both modes is
// an epoch-stamped open-addressing table (interntable.go) whose branch
// reset is O(1) and whose image snapshots by memcpy.
//
// Above the per-branch engines sits a tree-level pruning layer
// (prune.go): branching observations are chosen by a refutation-guided
// score (most waiting states plus learned refutation credits) instead
// of blind fan-out order, and child branches whose new binding hands
// the adversary an immediate win are refuted before they are enqueued.
// Solver.NoPrune retains the unpruned search as the third differential
// oracle.
package feasibility

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"ringrobots/internal/config"
	"ringrobots/internal/ring"
)

// Decision is an algorithm table entry.
type Decision int

const (
	// DStay keeps the robot idle.
	DStay Decision = iota
	// DTowardLo moves along the direction whose view is lexicographically
	// smaller.
	DTowardLo
	// DTowardHi moves along the other direction.
	DTowardHi
	// DEither moves in an adversary-chosen direction (the only moving
	// decision available to a robot whose two views coincide).
	DEither
)

func (d Decision) String() string {
	switch d {
	case DStay:
		return "stay"
	case DTowardLo:
		return "toward-lo"
	case DTowardHi:
		return "toward-hi"
	case DEither:
		return "either"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// ObsKey identifies an observation: the unordered pair of directional
// views a robot perceives, as compact comparable keys. It replaces the
// former "(lo)|(hi)" string keys: hashing two words is far cheaper than
// building and hashing a formatted string in every table lookup.
type ObsKey struct {
	Lo, Hi config.CanonKey
}

// Less orders observations deterministically (for reproducible
// branching order in the table search).
func (o ObsKey) Less(p ObsKey) bool {
	if o.Lo != p.Lo {
		return o.Lo.Less(p.Lo)
	}
	return o.Hi.Less(p.Hi)
}

func (o ObsKey) String() string {
	return o.Lo.String() + "|" + o.Hi.String()
}

// Table is a partial oblivious algorithm: observation → decision. The
// search never clones tables: branches are copy-on-write tableNode
// chains, materialized into a worker's per-observation-id view once per
// analyze.
type Table map[ObsKey]Decision

// obsOf builds the observation of the robot at node u: the unordered
// pair of its directional views, the direction realizing the smaller
// view, and the bitmask of the algorithm player's legal decisions for
// it (computed here, while the actual views are at hand, so that no
// later stage ever needs to parse a key back into views).
func obsOf(c config.Config, u int) (ObsKey, ring.Direction, uint8) {
	cw := c.ViewFrom(u, ring.CW)
	ccw := c.ViewFrom(u, ring.CCW)
	lo, hi, loDir := cw, ccw, ring.CW
	if ccw.Less(cw) {
		lo, hi, loDir = ccw, cw, ring.CCW
	}
	// Moves onto occupied nodes are omitted: executing one is an
	// immediate collision, so they are strictly dominated.
	mask := uint8(1) << uint(DStay)
	if lo.Equal(hi) {
		if lo[0] > 0 {
			mask |= 1 << uint(DEither)
		}
	} else {
		if lo[0] > 0 {
			mask |= 1 << uint(DTowardLo)
		}
		if hi[0] > 0 {
			mask |= 1 << uint(DTowardHi)
		}
	}
	return ObsKey{Lo: config.KeyOf(lo), Hi: config.KeyOf(hi)}, loDir, mask
}

// decisionsFromMask expands a legal-decision bitmask in the fixed
// enumeration order (Stay, TowardLo, TowardHi, Either). The solver's hot
// branch path iterates masks inline; this helper serves diagnostics and
// tests.
func decisionsFromMask(mask uint8) []Decision {
	out := make([]Decision, 0, bits.OnesCount8(mask))
	for d := DStay; d <= DEither; d++ {
		if mask&(1<<uint(d)) != 0 {
			out = append(out, d)
		}
	}
	return out
}

// obsInfo is one robot's cached observation in a configuration.
type obsInfo struct {
	node  int
	oid   int32 // dense observation id (obsCache.key)
	loDir ring.Direction
	legal uint8 // bitmask of legal decisions for this observation
}

// ErrBudget is the sentinel for an exhausted search budget (no
// verdict). Errors returned by Solve wrap it in a *BudgetError carrying
// the aborted tier and the expansion units spent there; match with
// errors.Is(err, ErrBudget), never by identity.
var ErrBudget = errors.New("feasibility: search budget exhausted")

// BudgetError is the wrapped form of ErrBudget the solver returns: it
// records which pending tier ran out and how many expansion units that
// tier had charged when the budget tripped (this run only — cumulative
// units across checkpointed resumes live in Result.ExpansionUnits).
// The budget is one branch, then MaxExpansions: a run always finishes
// the first branch it takes up in a tier, so Units can exceed the
// budget by that branch's cost, and every resumed leg of a drain makes
// progress.
type BudgetError struct {
	Tier  int
	Units int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("feasibility: search budget exhausted at tier %d after %d expansion units", e.Tier, e.Units)
}

func (e *BudgetError) Unwrap() error { return ErrBudget }

// SolverVersion tags checkpoints with the search semantics that
// produced them. Resume is only bit-deterministic against the exact
// search that wrote the checkpoint, so Resume refuses checkpoints
// carrying another version string. Bump it whenever branching order,
// pruning, quotienting, per-branch analysis, or the checkpoint
// encoding changes. Version 6 spans one exception, the removal of the
// refuted-subtable memo: it changed no verdict or tier, and a checkpoint
// written with memo records still resumes (the records are skipped),
// though its tree may then differ from the writer's.
const SolverVersion = "ringrobots-solver-6"

// Solver searches for an adversary win against every algorithm table.
//
// Solve escalates through adversary tiers. Tier 0 uses fused atomic
// activations (Look+Compute+Move in one step) of single robots and of
// groups of robots sharing one observation — the semi-synchronous
// adversary that most of the paper's proofs use. Tier 1 additionally
// lets the adversary hold up to PendingLimit computed moves while other
// robots act — the fully asynchronous trick of Theorem 5's (5,9) case.
// Every tier is a restriction of the real asynchronous adversary, so an
// impossibility verdict at any tier is sound; a survivor escalates.
type Solver struct {
	N, K int
	// MaxExpansions bounds graph work per tier (cumulative across table
	// branches and workers): one branch, then MaxExpansions. A run
	// always finishes its first branch of a tier, so that a resumed leg,
	// whose first branch re-analyzes from scratch, gets past it; after
	// that, exceeding the budget aborts with ErrBudget rather than
	// returning a wrong verdict.
	MaxExpansions int
	// MaxCycleLen bounds the length of candidate starvation loops; zero
	// means NewSolver's default.
	MaxCycleLen int
	// PendingTiers lists the pending-move allowances tried in order;
	// defaults to {0, 2}.
	PendingTiers []int
	// Workers is the size of the table-search worker pool; 0 or negative
	// means GOMAXPROCS, which is what NewSolver and the public
	// ProveSearchingImpossible run with. An impossibility verdict holds
	// for any worker count: every adversary win is validated, so none is
	// an artifact of branch order. The tier, the surviving table and
	// whether the solve finishes within MaxExpansions can depend on the
	// worker count today: the lasso hunt is not complete within its
	// bounds, so which partial table it refutes depends on the branch
	// order the workers' interleaving produces. One worker reproduces the
	// sequential depth-first search exactly.
	Workers int
	// NoQuotient disables the dihedral symmetry quotient: states are
	// interned verbatim instead of canonically under the ring's 2n
	// isometries. The game is invariant under those isometries, so the
	// quotiented search (the default) reaches the same verdicts with up
	// to 2n× fewer interned states per branch; the unquotiented searcher
	// is retained as the differential oracle (quotient_test.go).
	NoQuotient bool
	// NoIncremental disables incremental sibling-branch re-analysis:
	// every branch rebuilds its reachable graph from scratch instead of
	// adopting the parent branch's snapshot and re-expanding only the
	// frontier its one new table entry unlocks (incremental.go). A
	// branch's analysis outputs are identical in both modes — the
	// full-reanalysis path is the differential oracle pinning verdict,
	// tier and survivor agreement (incremental_test.go), exactly as
	// NoQuotient does for the symmetry quotient. Orthogonal to
	// NoQuotient: all four mode combinations are valid.
	NoIncremental bool
	// NoPrune disables the tree-level pruning layer (prune.go): the
	// refutation-guided branching order falls back to the historical
	// fewest-legal-decisions choice, and no child branch is refuted
	// without analysis by the dominance probe. Every prune is a branch
	// the unpruned search provably refutes, so the two modes agree on
	// verdict, tier and survivor validity — prune_test.go pins that
	// contract, making this the third differential oracle alongside
	// NoQuotient and NoIncremental.
	// With pruning on, the explored tree is (often drastically)
	// smaller, so TablesExplored and the work counters differ by
	// design.
	NoPrune bool
	// noCollisionOrder disables the collision-likelihood ordering of
	// dirty-state re-expansion (incremental.go), falling back to pure
	// discovery order. Test hook: the per-branch outputs are identical
	// either way, which incremental_test.go pins.
	noCollisionOrder bool

	// CheckpointEvery, when positive (and OnCheckpoint set), quiesces
	// the table search every that many processed branches and hands a
	// checkpoint of the live drain to OnCheckpoint. With one worker the
	// quiesce points — and therefore the checkpoints — are
	// deterministic.
	CheckpointEvery int
	// OnCheckpoint receives each periodic checkpoint (checkpoint.go),
	// typically to append it to a journal. It runs on a worker
	// goroutine while the search is quiesced; returning an error aborts
	// the solve with that error.
	OnCheckpoint func(*Checkpoint) error
	// BranchHook, when non-nil, is called by workers after every
	// processed branch with the cumulative count of branches this tier.
	// It is the crashpoint hook of the fault-injection suite (and of
	// cmd/drain's crash modes); production solves leave it nil.
	BranchHook func(int64)
	// StopAfterTier makes Solve/Resume return at the end of the first
	// tier it runs instead of escalating the ladder on a survivor. Only
	// drain-pool shards (partition.go) set it: each settles just its own
	// subtree at the checkpoint's tier, and Merge — which alone sees
	// every shard — decides escalation.
	StopAfterTier bool

	// obsCache memoizes per-configuration observations across all table
	// branches, tiers and workers, sharded by occupied mask.
	obsCache *obsCache

	// lastPrune retains the most recent solve's pruning state so
	// PruneExport (partition.go) can ship learned credits from a
	// finished shard back to the drain-pool coordinator.
	lastPrune *pruneState
}

// NewSolver returns a solver with defaults suitable for n ≤ 9: the
// budget covers even the deepest Theorem 5 cases, (4,9) and (5,9), which
// the interned engine finishes in seconds.
func NewSolver(n, k int) *Solver {
	return &Solver{N: n, K: k, MaxExpansions: 250_000_000, MaxCycleLen: defaultMaxCycleLen, PendingTiers: defaultPendingTiers()}
}

// Result reports a Solve outcome.
type Result struct {
	// Impossible is true when the adversary beats every table.
	Impossible bool
	// Tier is the pending-move allowance at which the verdict was reached.
	Tier int
	// SurvivorTable holds a table the adversary failed to beat (when
	// Impossible is false) — a candidate algorithm that survived the
	// strongest tier tried, not a proof of solvability. Under a parallel
	// search any of the surviving tables may be reported.
	SurvivorTable Table
	// TablesExplored counts decision-table branches examined (cumulative
	// over tiers; schedule-dependent under a parallel search, since the
	// first survivor cancels the remaining branches).
	TablesExplored int
	// StatesInterned sums the interned state-graph sizes over all
	// branches and tiers — the measure of the symmetry quotient's
	// frontier compression (schedule-dependent under a parallel search,
	// like TablesExplored). A branch's graph is the same whether built
	// fresh or inherited, so the metric is mode-independent.
	StatesInterned int64
	// StatesReexpanded counts expand() calls actually performed — in
	// incremental mode only dirty states and the unlocked frontier, with
	// full re-analysis every interned state — so the incremental reuse
	// compression is StatesReexpanded(NoIncremental) / StatesReexpanded.
	StatesReexpanded int64
	// BranchesReused counts table branches analyzed incrementally from
	// their parent's snapshot (all non-root branches unless
	// NoIncremental is set or a snapshot was dropped by cancellation).
	BranchesReused int64
	// TablesMemoHit is always 0. It counted the hits of a
	// refuted-subtable memo that was removed, and is kept only because the
	// end-to-end benchmark module reads it; it goes when that reader
	// does.
	TablesMemoHit int64
	// BranchesDominated counts child branches refuted without analysis
	// by the dominance probe: their newly-bound decision handed the
	// adversary an immediate win (a colliding same-observation group
	// activation, or a Stay binding completing an all-stay deadlock on a
	// contaminated ring) at a state waiting on the observation. Never
	// enqueued, not part of TablesExplored.
	BranchesDominated int64
	// ExpansionUnits sums the expansion units charged against the
	// per-tier budgets, cumulative over tiers and — when the solve was
	// restored from a checkpoint — over every run of the drain. Each run
	// gets a fresh MaxExpansions allowance per tier; this counter is the
	// total the whole (possibly interrupted and resumed) drain spent.
	ExpansionUnits int64
}

// Solve decides whether exclusive perpetual graph searching with K robots
// on an N-node ring is impossible for every oblivious algorithm.
func (s *Solver) Solve() (Result, error) {
	res, _, err := s.solve(context.Background(), nil)
	return res, err
}

// SolveContext is Solve with cooperative suspension: cancelling ctx (or
// exhausting a tier's budget) stops the drain cleanly and, when the
// tier still has open branches, returns a Checkpoint capturing them —
// resumable later with Resume. The checkpoint is nil when the solve ran
// to a verdict or failed on a non-suspendable error.
func (s *Solver) SolveContext(ctx context.Context) (Result, *Checkpoint, error) {
	return s.solve(ctx, nil)
}

// Resume continues a suspended drain from a checkpoint, picking up the
// saved tier with the saved open frontier, pruning state and cumulative
// counters. The receiving solver must match the checkpoint's ring
// parameters, search-mode flags and SolverVersion (validateFor); the
// tier gets a fresh MaxExpansions allowance, which is how a journaled
// drain accumulates budget across runs. In single-worker mode a chain
// of budget suspensions and resumes reaches the same verdict, tier,
// survivor and TablesExplored as one uninterrupted run.
func (s *Solver) Resume(ctx context.Context, ck *Checkpoint) (Result, *Checkpoint, error) {
	if err := ck.validateFor(s); err != nil {
		return Result{}, nil, err
	}
	return s.solve(ctx, ck)
}

// suspendableErr reports whether an abort leaves a resumable frontier:
// budget exhaustion and context cancellation suspend; anything else
// (including an OnCheckpoint error — the callback already has the
// latest checkpoint) is terminal.
func suspendableErr(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// addCounters returns base plus the tier's counters so far. All fields
// are atomics, so the sum is exact whenever the pool is quiesced (the
// checkpoint barrier) or exited (tier end).
func addCounters(base Result, ts *tierSearch) Result {
	base.TablesExplored += int(ts.tables.Load())
	base.StatesInterned += ts.statesInterned.Load()
	base.StatesReexpanded += ts.statesReexpanded.Load()
	base.BranchesReused += ts.branchesReused.Load()
	base.BranchesDominated += ts.dominated.Load()
	base.ExpansionUnits += ts.expansions.Load()
	return base
}

func (s *Solver) solve(ctx context.Context, ck *Checkpoint) (Result, *Checkpoint, error) {
	if s.K < 1 || s.K >= s.N || s.N < 3 || s.N > maxRingSize {
		return Result{}, nil, fmt.Errorf("feasibility: solver supports 3 <= n <= %d, 1 <= k < n; got n=%d k=%d", maxRingSize, s.N, s.K)
	}
	inst := s.InstanceOf()
	tiers := inst.PendingTiers
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if s.obsCache == nil || s.obsCache.n != s.N {
		s.obsCache = newObsCache(s.N)
	}
	starts := s.initialStates()
	// One pruning state serves the whole solve; its credits are per-tier
	// statistics, reset at each tier boundary (below).
	var prune *pruneState
	if !s.NoPrune {
		prune = newPruneState(s.obsCache)
	}
	s.lastPrune = prune

	res := Result{}
	startTier := 0
	// survivor tracks the latest tier's surviving table across the
	// ladder (and across suspensions): a checkpoint taken at tier i
	// must preserve the survivor that escalated tiers 0..i-1, or a
	// resumed drain whose final tier also survives would report the
	// wrong table — and a resumed drain that never re-runs the earlier
	// tiers would report none at all.
	var survivor Table
	if ck != nil {
		startTier = ck.tierIndex
		res = ck.counters
		survivor = ck.priorSurvivor()
		if prune != nil {
			prune.importState(ck.credits)
		}
	}
	for ti := startTier; ti < len(tiers); ti++ {
		limit := tiers[ti]
		resuming := ck != nil && ti == startTier
		if prune != nil && ti > 0 && !resuming {
			// Refutation credits are per-tier statistics: a different
			// pending allowance is a different game, and carrying tier-0
			// credits into tier 2 measurably poisons its branching order
			// ((5,9) explores 16–37× more tables with cross-tier credits).
			// When resuming, the imported credits are the suspended
			// tier's own statistics and must survive.
			prune.resetCredits()
		}
		res.Tier = limit
		res.SurvivorTable = nil
		base := res
		ts := &tierSearch{
			n:              s.N,
			k:              s.K,
			pendingLimit:   limit,
			maxExpansions:  int64(s.MaxExpansions), // budget per tier (fresh per run)
			maxCycleLen:    inst.MaxCycleLen,
			quotient:       !s.NoQuotient,
			incremental:    !s.NoIncremental,
			collisionOrder: !s.noCollisionOrder,
			prune:          prune,
			starts:         starts,
			obs:            s.obsCache,
			queue:          newWorkQueue(),
			ckptEvery:      int64(s.CheckpointEvery),
			branchHook:     s.BranchHook,
		}
		if resuming {
			// Restore the suspended frontier in its stored (bottom to
			// top) order, re-establishing the LIFO stack the suspension
			// drained. The nodes carry no snapshots, so each runs a full
			// analysis; per-branch outputs are identical either way (the
			// incremental differential contract), so the tree below them
			// — and TablesExplored — matches the uninterrupted run.
			frontier, err := ck.rebuildFrontier(s.obsCache)
			if err != nil {
				return res, nil, err
			}
			for _, nd := range frontier {
				ts.queue.push(nd)
			}
		} else {
			ts.queue.push(&tableNode{}) // root: the empty table
		}
		ts.queue.workers = workers
		if s.CheckpointEvery > 0 && s.OnCheckpoint != nil {
			ts.queue.barrier = func(frontier []*tableNode) bool {
				cp := s.captureCheckpoint(inst, ti, addCounters(base, ts), survivor, frontier, prune)
				if err := s.OnCheckpoint(cp); err != nil {
					ts.failQuiesced(err)
					return false
				}
				return true
			}
		}
		watchDone := make(chan struct{})
		if ctx.Done() != nil {
			go func() {
				select {
				case <-ctx.Done():
					ts.fail(ctx.Err())
				case <-watchDone:
				}
			}()
		}
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := newSearcher(ts)
				defer w.release()
				for {
					nd := ts.queue.pop()
					if nd == nil {
						return
					}
					w.process(nd)
					w.flush()
					ts.queue.finish()
					done := ts.done.Add(1)
					if ts.branchHook != nil {
						ts.branchHook(done)
					}
					if ts.ckptEvery > 0 && done%ts.ckptEvery == 0 {
						ts.queue.requestPause()
					}
				}
			}()
		}
		wg.Wait()
		close(watchDone)
		res = addCounters(base, ts)
		// A survivor settles the tier even if a racing worker exhausted
		// the budget on a branch the survivor made irrelevant: one table
		// the adversary cannot beat refutes impossibility regardless of
		// the unexplored remainder, so the verdict stays identical for
		// every worker count. An impossibility verdict, by contrast,
		// needs the whole tree drained, so any error voids it.
		if ts.survivor != nil {
			survivor = ts.survivor
			res.SurvivorTable = survivor
			if s.StopAfterTier {
				return res, nil, nil
			}
			continue // a survivor escalates to the next tier
		}
		if ts.err != nil {
			res.SurvivorTable = survivor // prior tiers' survivor, telemetry only
			err := ts.err
			if !suspendableErr(err) {
				return res, nil, err
			}
			// Suspension: the open frontier is the queue's remaining
			// stack plus any branches workers had popped but abandoned
			// mid-process (stacked on top — with one worker that is the
			// exact LIFO position the abort took them from).
			frontier := append(append([]*tableNode(nil), ts.queue.drainRemaining()...), ts.abandonedNodes()...)
			if len(frontier) == 0 {
				// The abort flag tripped at the final branch boundary —
				// after every branch had already completed and none were
				// abandoned (any branch interrupted mid-analysis lands in
				// the abandoned list). The tree is fully drained, so the
				// impossibility verdict is sound despite the late error;
				// without this, a drain whose budget trips exactly at
				// exhaustion could never converge across resumes.
				res.Impossible = true
				res.SurvivorTable = nil
				return res, nil, nil
			}
			cp := s.captureCheckpoint(inst, ti, res, survivor, frontier, prune)
			if errors.Is(err, ErrBudget) {
				err = &BudgetError{Tier: limit, Units: ts.expansions.Load()}
			}
			return res, cp, err
		}
		res.Impossible = true
		res.SurvivorTable = nil
		return res, nil, nil
	}
	res.SurvivorTable = survivor
	return res, nil, nil
}

// initialStates returns one representative per equivalence class of
// exclusive configurations (the adversary picks the worst start).
func (s *Solver) initialStates() []state {
	seen := make(map[config.CanonKey]bool)
	var out []state
	nodes := make([]int, s.K)
	var rec func(idx, next int)
	rec = func(idx, next int) {
		if idx == s.K {
			c := config.MustNew(s.N, nodes...)
			key := c.CanonKey()
			if seen[key] {
				return
			}
			seen[key] = true
			var occ uint64
			for _, u := range nodes {
				occ |= 1 << uint(u)
			}
			out = append(out, state{occupied: occ})
			return
		}
		for u := next; u <= s.N-(s.K-idx); u++ {
			nodes[idx] = u
			rec(idx+1, u+1)
		}
	}
	nodes[0] = 0
	rec(1, 1)
	return out
}
