package feasibility

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file holds the machinery of the parallel table search: the
// copy-on-write decision-table chains handed to workers, the shared
// work queue of unexplored table branches, the sharded cross-branch
// observation cache, and the per-tier shared search context.

// --- copy-on-write tables ----------------------------------------------------

// tableNode is one binding of a partial decision table, represented as a
// persistent chain: a branch's table is the path from its node to the
// root. Sibling branches share their common prefix, so enqueueing a
// branch costs one small allocation instead of a map clone; workers
// materialize the chain into their per-id table view once per analyze
// (searcher.materialize).
type tableNode struct {
	parent *tableNode // nil only for the root (empty table)
	oid    int32      // the bound observation's dense id (obsCache.key)
	d      Decision
	// snap is the parent branch's published analysis (nil for the root
	// and in NoIncremental mode): the child differs from it by exactly
	// the one (obs, d) binding above, so its worker re-expands only the
	// frontier that binding unlocks instead of rebuilding the graph.
	// See incremental.go.
	snap *branchSnap
	// openKids counts children enqueued but not yet refuted. When a
	// refuted child drops it to zero the node itself is refuted and the
	// closure propagates upward, recording subtree nogoods and
	// refutation credits along the way (prune.go). Untouched without
	// pruning.
	openKids atomic.Int32
}

// toTable returns the chain as a fresh Table (for Result.SurvivorTable).
func (nd *tableNode) toTable(c *obsCache) Table {
	t := make(Table)
	for ; nd != nil && nd.parent != nil; nd = nd.parent {
		t[c.key(nd.oid)] = nd.d
	}
	return t
}

// --- work queue --------------------------------------------------------------

// workQueue is a shared LIFO of unexplored table branches. LIFO order
// makes a single worker reproduce the sequential depth-first search
// exactly; with several workers the tree is explored in parallel and
// siblings stolen from the top act as the coarsest-grained work items.
// pending counts branches pushed but not yet fully processed, so workers
// block (rather than exit) while a peer that might push children is
// still running.
//
// The queue doubles as the checkpoint quiesce point: when pauseWanted
// is set (requestPause), workers park inside pop instead of taking
// work, and the last one to park — with every node either queued or
// finished, none mid-process — runs the barrier callback over q.items,
// which at that instant is exactly the open frontier of the tier.
type workQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []*tableNode
	pending int
	stopped bool

	// workers counts pool members that have not exited pop with nil;
	// the solver sets it before launching the pool. paused counts
	// members currently parked at the pause barrier.
	workers     int
	paused      int
	pauseWanted bool
	// barrier runs under q.mu while the tier is quiesced; it receives
	// the live frontier (must not be retained) and reports whether the
	// search should continue (false aborts: the callback has already
	// recorded its error in the tierSearch).
	barrier func(frontier []*tableNode) bool
}

func newWorkQueue() *workQueue {
	q := &workQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *workQueue) push(nd *tableNode) {
	q.mu.Lock()
	q.items = append(q.items, nd)
	q.pending++
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until a branch is available, all work has drained, or the
// search was stopped; it returns nil in the latter two cases. While a
// pause is wanted, workers park here; the last to park runs the
// checkpoint barrier and releases the others.
func (q *workQueue) pop() *tableNode {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.stopped {
			q.workers--
			return nil
		}
		if q.pauseWanted {
			q.paused++
			if q.paused == q.workers {
				// Quiesced: no worker holds a node, so q.items is the
				// complete open frontier. Skip the callback when the tier
				// is about to drain anyway (empty frontier).
				if q.barrier != nil && len(q.items) > 0 {
					if !q.barrier(q.items) {
						q.stopped = true
					}
				}
				q.pauseWanted = false
				q.cond.Broadcast()
			} else {
				for q.pauseWanted && !q.stopped {
					q.cond.Wait()
				}
			}
			q.paused--
			continue
		}
		if n := len(q.items); n > 0 {
			nd := q.items[n-1]
			q.items[n-1] = nil
			q.items = q.items[:n-1]
			return nd
		}
		if q.pending == 0 {
			q.pauseWanted = false
			q.workers--
			q.cond.Broadcast()
			return nil
		}
		q.cond.Wait()
	}
}

// requestPause asks the pool to quiesce for a checkpoint at the next
// branch boundary. A no-op on a stopped or drained queue.
func (q *workQueue) requestPause() {
	q.mu.Lock()
	if !q.stopped && q.pending > 0 {
		q.pauseWanted = true
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// drainRemaining returns the queued-but-unpopped branches in stack
// order (bottom to top). Only meaningful after the worker pool has
// exited; the caller owns nothing — the slice aliases the queue.
func (q *workQueue) drainRemaining() []*tableNode {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items
}

// finish marks one popped branch fully processed (children, if any,
// were already pushed).
func (q *workQueue) finish() {
	q.mu.Lock()
	q.pending--
	done := q.pending == 0
	q.mu.Unlock()
	if done {
		q.cond.Broadcast()
	}
}

// stop aborts the search: pending blockers wake and drain.
func (q *workQueue) stop() {
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// --- sharded observation cache ----------------------------------------------

// obsSet is everything expansion needs to know about one configuration
// (occupied mask): the per-robot observations (by dense id) and the
// same-observation groups (size ≥ 2) eligible for simultaneous
// activation. It is computed once per mask and shared read-only across
// branches and workers.
type obsSet struct {
	infos []obsInfo
	// groups lists indices into infos of robots sharing one observation,
	// one slice per observation with at least two robots. Pending-ness is
	// table- and tier-independent here; expand filters per state.
	groups [][]int32
}

const obsCacheShards = 64

// obsChunkBits sizes the blocks of the id → ObsKey table.
const obsChunkBits = 8

type obsChunk [1 << obsChunkBits]ObsKey

// obsCache memoizes obsSet per occupied mask across all table branches
// of a Solve, sharded to keep contention negligible under the worker
// pool. Duplicated computation on a racing miss is benign (the value is
// deterministic). Under the symmetry quotient every lookup arrives in
// canonical frame, so the cache holds one entry per configuration class
// — the same dihedral reduction as the interned frontier — instead of
// one per node labeling.
//
// The cache also gives every observation a dense id, assigned when an
// obsSet is built on a miss (or when a checkpoint names one). The
// search carries ids in waiters, obsSets and table chains, and indexes
// the branch's table view (searcher.decision) and the refutation
// credits by id, so neither needs a key. The ObsKey is fetched by id
// only for tie-breaks, nogood hashes and checkpoints. Ids depend on
// which worker built which obsSet first, so nothing may order by them:
// every ordering decision goes through ObsKey.Less.
type obsCache struct {
	n      int
	shards [obsCacheShards]struct {
		mu sync.RWMutex
		m  map[uint64]*obsSet
	}

	// idMu guards ids and the appends to keys.
	idMu sync.Mutex
	ids  map[ObsKey]int32
	// keys is the append-only id → ObsKey table: a directory of
	// fixed-size chunks, republished whole only when a chunk is added.
	// A slot is written once, under idMu, before its id is handed out,
	// so key reads it without a lock.
	keys atomic.Pointer[[]*obsChunk]
}

func newObsCache(n int) *obsCache {
	c := &obsCache{n: n, ids: make(map[ObsKey]int32)}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*obsSet)
	}
	c.keys.Store(new([]*obsChunk))
	return c
}

func obsShardOf(occ uint64) uint64 {
	return (occ * 0x9e3779b97f4a7c15) >> (64 - 6)
}

func (c *obsCache) get(occ uint64) *obsSet {
	sh := &c.shards[obsShardOf(occ)]
	sh.mu.RLock()
	os := sh.m[occ]
	sh.mu.RUnlock()
	if os != nil {
		return os
	}
	os = c.build(occ)
	sh.mu.Lock()
	if prev := sh.m[occ]; prev != nil {
		os = prev
	} else {
		sh.m[occ] = os
	}
	sh.mu.Unlock()
	return os
}

// key returns the observation an id was assigned to.
func (c *obsCache) key(id int32) ObsKey {
	return (*c.keys.Load())[id>>obsChunkBits][id&(1<<obsChunkBits-1)]
}

// idOf returns the id of o, assigning the next one on first sight.
func (c *obsCache) idOf(o ObsKey) int32 {
	c.idMu.Lock()
	defer c.idMu.Unlock()
	if id, ok := c.ids[o]; ok {
		return id
	}
	id := int32(len(c.ids))
	dir := *c.keys.Load()
	if int(id>>obsChunkBits) == len(dir) {
		grown := append(dir[:len(dir):len(dir)], new(obsChunk))
		c.keys.Store(&grown)
		dir = grown
	}
	dir[id>>obsChunkBits][id&(1<<obsChunkBits-1)] = o
	c.ids[o] = id
	return id
}

func (c *obsCache) build(occ uint64) *obsSet {
	st := state{occupied: occ}
	cfg := st.config(c.n)
	os := &obsSet{infos: make([]obsInfo, 0, bits.OnesCount64(occ))}
	for u := 0; u < c.n; u++ {
		if !st.occupiedAt(u) {
			continue
		}
		obs, loDir, legal := obsOf(cfg, u)
		os.infos = append(os.infos, obsInfo{node: u, oid: c.idOf(obs), loDir: loDir, legal: legal})
	}
	for i := range os.infos {
		grouped := false
		for _, g := range os.groups {
			if os.infos[g[0]].oid == os.infos[i].oid {
				grouped = true
				break
			}
		}
		if grouped {
			continue
		}
		var g []int32
		for j := i + 1; j < len(os.infos); j++ {
			if os.infos[j].oid == os.infos[i].oid {
				g = append(g, int32(j))
			}
		}
		if g != nil {
			os.groups = append(os.groups, append([]int32{int32(i)}, g...))
		}
	}
	return os
}

// --- per-tier shared search state -------------------------------------------

// tierSearch is the state shared by all workers of one adversary tier:
// solver parameters, the cumulative expansion budget, the branch
// counter, the fail-fast stop flag, and the first survivor or error.
type tierSearch struct {
	n, k          int
	pendingLimit  int
	maxExpansions int64
	maxCycleLen   int
	// quotient interns states canonically under the ring's 2n dihedral
	// isometries (quotient.go); when set, every mask reaching the shared
	// obsCache below is already in canonical frame, so the cache holds
	// one entry per configuration class instead of one per labeling.
	quotient bool
	// incremental makes every non-root branch reuse its parent's
	// published analysis snapshot instead of re-expanding the reachable
	// graph from scratch (incremental.go). Off, the tier runs the
	// verbatim full-reanalysis oracle.
	incremental bool
	// collisionOrder re-expands dirty states in collision-likelihood
	// order (pending executions first) instead of discovery order
	// (incremental.go); the per-branch outputs are identical either
	// way, only how soon a win-by-collision branch short-circuits.
	collisionOrder bool
	// prune is the solve-wide pruning state (observation refutation
	// credits + the subtable nogood memo), shared by every worker of
	// every tier; nil under Solver.NoPrune. See prune.go.
	prune *pruneState
	// recordNogoods enables nogood recording for this tier. Only
	// non-final tiers record: a nogood can only ever be consumed by a
	// *later* tier of the ladder (within one tier the search never
	// revisits a table, and cousin subtrees assembling supersets of an
	// interior refutation measure zero across the paper cases), so
	// recording at the final tier is provably pure overhead.
	recordNogoods bool
	starts        []state
	obs           *obsCache
	queue         *workQueue

	// ckptEvery, when positive, quiesces the pool for a periodic
	// checkpoint every that many processed branches; branchHook is the
	// per-branch instrumentation / fault-injection hook. Both are wired
	// from the Solver.
	ckptEvery  int64
	branchHook func(int64)
	// done counts branches fully processed (popped, analyzed, children
	// pushed) — the checkpoint cadence counter.
	done atomic.Int64

	expansions atomic.Int64
	tables     atomic.Int64
	// statesInterned accumulates the per-branch interned-graph sizes —
	// the quotient's compression is measured by this counter. Both modes
	// count the same graphs: a branch's interned graph is identical
	// whether it was built fresh or inherited and extended.
	statesInterned atomic.Int64
	// statesReexpanded accumulates expand() calls actually performed —
	// in incremental mode only the unlocked frontier, in full mode every
	// interned state — so the reuse compression is the ratio between the
	// modes' values.
	statesReexpanded atomic.Int64
	// branchesReused counts branches analyzed incrementally from a
	// parent snapshot.
	branchesReused atomic.Int64
	// memoHits counts child branches refuted by the subtable nogood
	// memo without being enqueued; dominated counts children refuted by
	// the one-step dominance probe. Both are tree-level prunes: the
	// branches never reach TablesExplored.
	memoHits  atomic.Int64
	dominated atomic.Int64
	stop      atomic.Bool

	// snapPool recycles released branch snapshots (their array capacity)
	// across workers.
	snapPool sync.Pool

	mu       sync.Mutex
	survivor Table
	err      error
	// aborted collects branches popped but not completed when the tier
	// stopped: together with the queue's remaining items they form the
	// suspend frontier a checkpoint must capture, so a resumed drain
	// re-processes exactly the work an uninterrupted run would have.
	aborted []*tableNode
}

// fail records the first error and cancels the search.
func (ts *tierSearch) fail(err error) {
	ts.mu.Lock()
	if ts.err == nil {
		ts.err = err
	}
	ts.mu.Unlock()
	ts.stop.Store(true)
	ts.queue.stop()
}

// failQuiesced records an error from inside the checkpoint barrier,
// which already holds the queue lock: it must not call queue.stop (the
// barrier's caller marks the queue stopped itself).
func (ts *tierSearch) failQuiesced(err error) {
	ts.mu.Lock()
	if ts.err == nil {
		ts.err = err
	}
	ts.mu.Unlock()
	ts.stop.Store(true)
}

// abandon returns a popped-but-unfinished branch to the suspend
// frontier. The caller has already released the node's snapshot (if
// any) and uncounted it from tables when it was counted.
func (ts *tierSearch) abandon(nd *tableNode) {
	ts.mu.Lock()
	ts.aborted = append(ts.aborted, nd)
	ts.mu.Unlock()
}

// abandonedNodes returns the branches abandoned mid-process, in abandon
// order. Only meaningful after the worker pool has exited.
func (ts *tierSearch) abandonedNodes() []*tableNode {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.aborted
}

// foundSurvivor records a surviving table and cancels the search: one
// table the adversary cannot beat refutes impossibility at this tier.
func (ts *tierSearch) foundSurvivor(t Table) {
	ts.mu.Lock()
	if ts.survivor == nil {
		ts.survivor = t
	}
	ts.mu.Unlock()
	ts.stop.Store(true)
	ts.queue.stop()
}
