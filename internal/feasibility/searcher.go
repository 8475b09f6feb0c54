package feasibility

import (
	"errors"
	"math/bits"

	"ringrobots/internal/ring"
)

// errStopped aborts a worker's analyze when another worker already
// settled the tier (survivor found or error recorded). Never escapes the
// package.
var errStopped = errors.New("feasibility: search cancelled")

// expansionBatch is how many expansions a worker accumulates locally
// before flushing to the shared budget counter and re-checking the
// budget and the stop flag.
const expansionBatch = 1024

// edge is one adversary scheduling step in the state graph: a single
// robot's Look (creating a pending move or completing a Stay cycle), a
// pending execution, a fused Look+Move, or the simultaneous fused
// activation of a group of robots sharing one observation. Everything is
// a dense id or a node bitmask — an edge owns no heap memory.
type edge struct {
	to int32 // dense state id
	// stay marks a Look that resulted in a Stay decision (a complete
	// robot cycle without movement). Stay edges are self-loops; they are
	// excluded from cycle search and re-inserted by the fairness check.
	stay bool
	// iso is the isometry that canonicalized the target state under the
	// symmetry quotient: iso(post-move state in the source's frame) is
	// states[to]. Identity when quotienting is off. acts and the move
	// masks below stay in the source's frame; the lasso checks compose
	// iso records to lift quotient cycles back to real executions.
	iso isom
	// acts is the bitmask of nodes whose robots were activated or moved.
	acts uint64
	// movesCW/movesCCW are the origin bitmasks of traversals executed by
	// this step, split by direction (both zero for pure Looks and Stays).
	movesCW  uint64
	movesCCW uint64
}

// nodeInfo caches per-state expansion results. Edges live in the
// searcher's shared arena; nodeInfo only holds the window.
type nodeInfo struct {
	edgeOff int32
	edgeLen int32
	// stayable is the bitmask of nodes whose robots have a known Stay
	// decision in this state (used by the fairness check).
	stayable uint64
	// allStayDeadlock marks states where no robot has a pending move and
	// every robot's (known) decision is Stay with no unknowns.
	allStayDeadlock bool
}

// tarFrame is one frame of the iterative Tarjan stack.
type tarFrame struct {
	id   int32
	edge int32
}

// cycleVisit is one lifted step of a candidate starvation loop: the
// canonical state visited and the accumulated isometry mapping its
// frame into the loop head's (lift) frame.
type cycleVisit struct {
	id int32
	v  isom
}

// searcher is one worker's search engine: the per-id view of the table
// of the branch under analysis, the state-interning tables (state →
// dense id with slice-backed adjacency, replacing the former per-branch
// map[uint64] trio), and every scratch buffer, all reused across the
// branches this worker processes.
type searcher struct {
	ts           *tierSearch
	n            int
	pendingLimit int
	// quotient interns states canonically under the 2n ring isometries
	// (see quotient.go); off, the searcher is the unquotiented oracle.
	quotient bool

	// tableEpoch stamps the obsSlots the current branch's table binds:
	// materialize walks the copy-on-write chain once per analyze and
	// writes each bound id's decision into its slot (see decision). It
	// starts above a fresh slot's zero stamp, so a new searcher binds
	// nothing.
	tableEpoch uint64

	// State interning: states[id], cont[id] (stem contamination clear
	// mask at discovery) and info[id] are parallel; edges is the shared
	// adjacency arena indexed by nodeInfo windows. tab is the
	// epoch-stamped open-addressing interner (interntable.go): a branch
	// reset is O(1) and the whole image snapshots by memcpy.
	tab    internTable
	states []state
	cont   []uint64
	info   []nodeInfo
	edges  []edge
	// numStarts is how many distinct (canonicalized) start states head
	// the intern order; the canonical-discovery replay in incremental
	// mode re-seeds exactly that prefix.
	numStarts int32

	// waiters records every (state, observation) pair whose expansion
	// found the observation missing from the table, with its
	// legal-decision mask. It replaces the former needed map: besides
	// driving branch selection it is the reverse index incremental
	// re-analysis uses to find the states a new table entry unlocks.
	waiters []waiter

	// expanded counts expand() calls this branch (flushed to the shared
	// statesReexpanded counter by process) — the measure of expansion
	// work actually performed, identical in meaning for both modes.
	expanded int64

	// Incremental re-analysis scratch (incremental.go). prevCont,
	// prevScc and prevCompSize alias the parent snapshot's arrays for
	// the duration of one analyzeIncremental call.
	prevCont     []uint64
	prevScc      []int32
	prevCompSize []int32
	dirtyMark    []uint64
	dirtyEpoch   uint64
	dirtyList    []int32
	dirtyTmp     []int32
	order        []int32
	compDirty    []bool
	compPrev     []int32

	// canonCache memoizes the occupied-mask half of state
	// canonicalization per worker: at most C(n,k) distinct masks exist
	// per tier, so after warmup every edgeTo canonicalization is one map
	// hit plus (under pending tiers) a tiny tie-break. Lock-free by
	// being worker-local; it persists across the worker's branches.
	canonCache map[uint64]occCanon

	// Tarjan scratch.
	scc      []int32
	compSize []int32
	tarIndex []int32
	tarLow   []int32
	onStack  []bool
	tarStack []int32
	frames   []tarFrame

	// Cycle-hunt scratch. The visit marks are epoch-stamped so findBadCycle
	// never has to clear the slice; the epoch is 64-bit because one searcher
	// lives for a whole tier and deep budgets (T5LONG runs 2G expansions)
	// could wrap a 32-bit counter, aliasing stale marks into fresh searches.
	visited    []uint64
	visitEpoch uint64
	path       []edge
	cycle      []edge
	visits     []cycleVisit
	maskSeen   []uint64
	isoSeen    []isom
	passClear  []bool
	// memo caches lasso verdicts by loop content (lassomemo.go); memoKey
	// is the buffer lassoKey builds probe keys in.
	memo    *lassoMemo
	memoKey []uint64

	// Group-activation scratch.
	groupBuf []obsInfo
	dirs     []ring.Direction

	// Per-observation-id scratch (see obsSlot), and branch selection's
	// list of the waiter registry's distinct observations.
	obsSlots []obsSlot
	agg      []obsAgg
	aggEpoch uint64

	// Pruning scratch: the per-component flag of the
	// bounded-multiplicity lasso hunt (true when the component carries
	// an in-component non-identity-isometry edge — the profile gate for
	// non-simple projected cycles).
	compIso []bool

	// local is the expansion count not yet flushed to the shared budget.
	local int64
}

// waiter is one registered unknown: state id waits on the observation
// with dense id oid, whose legal decisions are legal. See
// searcher.waiters.
type waiter struct {
	oid   int32
	id    int32
	legal uint8
}

// obsAgg is one distinct observation in selectNeeded's aggregation: how
// many waiter registrations it has and its legal mask.
type obsAgg struct {
	oid   int32
	count int32
	legal uint8
}

// obsSlot is a searcher's scratch for one observation id, stamped
// rather than cleared (the interntable.go idiom): bound == tableEpoch
// while the current branch's table defines the observation as d, and at
// indexes its obsAgg entry while agg == aggEpoch.
type obsSlot struct {
	bound uint64
	agg   uint64
	at    int32
	d     Decision
}

// slot returns oid's scratch slot, growing the slot array as the
// solve's observation ids grow.
func (w *searcher) slot(oid int32) *obsSlot {
	if int(oid) >= len(w.obsSlots) {
		grown := make([]obsSlot, 2*int(oid)+1)
		copy(grown, w.obsSlots)
		w.obsSlots = grown
	}
	return &w.obsSlots[oid]
}

// decision looks oid up in the current branch's table. Ids past the
// slot array were never bound.
func (w *searcher) decision(oid int32) (Decision, bool) {
	if int(oid) >= len(w.obsSlots) {
		return 0, false
	}
	sl := &w.obsSlots[oid]
	return sl.d, sl.bound == w.tableEpoch
}

func newSearcher(ts *tierSearch) *searcher {
	return &searcher{
		ts:           ts,
		n:            ts.n,
		pendingLimit: ts.pendingLimit,
		quotient:     ts.quotient,
		tableEpoch:   1,
		canonCache:   make(map[uint64]occCanon, 1<<8),
		dirs:         make([]ring.Direction, ts.k),
		memo:         lassoMemos.Get().(*lassoMemo),
	}
}

// release returns the worker's lasso memo to the pool for the next
// tier or solve; the searcher must not be used afterwards.
func (w *searcher) release() {
	lassoMemos.Put(w.memo)
	w.memo = nil
}

// canonState is the cached hot-path variant of the package-level
// canonState: the Booth kernel runs once per distinct occupied mask per
// worker.
func (w *searcher) canonState(s state) (state, isom) {
	oc, ok := w.canonCache[s.occupied]
	if !ok {
		oc = computeOccCanon(s.occupied, w.n)
		w.canonCache[s.occupied] = oc
	}
	return oc.canonicalize(s, w.n)
}

// process analyzes one table branch: a win closes the subtree, a
// completed table is a survivor (cancelling the tier), and an undefined
// observation fans out child branches onto the queue. Children are
// pushed in descending decision order so the LIFO queue pops them in the
// fixed enumeration order — with one worker this reproduces the
// sequential depth-first search exactly.
//
// A branch carrying its parent's snapshot is re-analyzed incrementally
// (incremental.go): the per-branch outputs (win, needed, legal) are
// exactly those of a full analyze of the same table, so the explored
// tree — and, per worker count, every Result field except the work
// counters — is identical in both modes. Branches that fan out publish
// a snapshot of the finished analysis for their children in turn.
//
// With pruning on (the default), candidate children are filtered before
// they are enqueued — the dominance probe refutes some without analysis
// (prune.go) — and every refuted branch propagates a closure up the
// tree, feeding the refutation credits that drive the
// branching-observation order.
func (w *searcher) process(nd *tableNode) {
	if w.ts.stop.Load() {
		// Popped just as the tier stopped: hand the untouched branch to
		// the suspend frontier so a checkpoint does not lose it. Its
		// snapshot is released — a resumed branch re-analyzes in full
		// (same per-branch outputs, see incremental.go).
		if nd.snap != nil {
			w.ts.releaseSnap(nd.snap)
			nd.snap = nil
		}
		w.ts.abandon(nd)
		return
	}
	w.ts.tables.Add(1)
	w.materialize(nd)
	var win bool
	var needed int32
	var legal uint8
	var err error
	if nd.snap != nil {
		w.ts.branchesReused.Add(1)
		win, needed, legal, err = w.analyzeIncremental(nd)
		w.prevCont, w.prevScc, w.prevCompSize = nil, nil, nil
		w.ts.releaseSnap(nd.snap)
		nd.snap = nil
	} else {
		win, needed, legal, err = w.analyze()
	}
	w.ts.statesInterned.Add(int64(len(w.states)))
	w.ts.statesReexpanded.Add(w.expanded)
	w.expanded = 0
	if err != nil {
		if err != errStopped {
			w.ts.fail(err)
		}
		// The branch was not completed: uncount it and return it to the
		// suspend frontier. A resumed drain re-processes (and re-counts)
		// it exactly once, which is what keeps single-worker
		// TablesExplored bit-identical to an uninterrupted run.
		w.ts.tables.Add(-1)
		w.ts.abandon(nd)
		return
	}
	if win {
		w.closeRefuted(nd)
		return
	}
	if legal == 0 {
		w.ts.foundSurvivor(nd.toTable(w.ts.obs))
		return
	}
	var kept [4]Decision
	nk := 0
	pr := w.ts.prune
	for d := DEither; d >= DStay; d-- {
		if legal&(1<<uint(d)) == 0 {
			continue
		}
		if pr != nil && w.dominatedChild(needed, d) {
			w.ts.dominated.Add(1)
			pr.addCredit(needed)
			continue
		}
		kept[nk] = d
		nk++
	}
	if nk == 0 {
		// Every candidate child was refuted without analysis: the
		// branch itself is a refuted subtree root.
		w.closeRefuted(nd)
		return
	}
	var snap *branchSnap
	if w.ts.incremental {
		snap = w.publishSnap(nk)
	}
	nd.openKids.Store(int32(nk))
	for i := 0; i < nk; i++ {
		w.ts.queue.push(&tableNode{parent: nd, oid: needed, d: kept[i], snap: snap})
	}
}

// materialize makes the branch's copy-on-write chain the current table:
// a fresh epoch unbinds the previous branch's slots, and each chain
// binding stamps its id's slot with the decision.
func (w *searcher) materialize(nd *tableNode) {
	w.tableEpoch++
	for ; nd != nil && nd.parent != nil; nd = nd.parent {
		sl := w.slot(nd.oid)
		sl.bound, sl.d = w.tableEpoch, nd.d
	}
}

// checkAbort counts one unit of search work; every expansionBatch units
// it flushes to the shared budget and reports budget exhaustion or a
// cancelled tier. The budget cannot trip before this run of the tier
// has finished one branch: a resumed frontier carries no snapshots, so
// its first branch runs a full analysis that can cost more than a small
// leg's whole budget, and aborting it would hand back the checkpoint
// the leg started from — a drain that never finishes.
func (w *searcher) checkAbort() error {
	w.local++
	if w.local < expansionBatch {
		return nil
	}
	total := w.ts.expansions.Add(w.local)
	w.local = 0
	// The stop flag outranks the budget: once a peer settled the tier
	// (survivor found), burning past the budget on a branch the settled
	// verdict makes irrelevant must not surface as ErrBudget.
	if w.ts.stop.Load() {
		return errStopped
	}
	if total > w.ts.maxExpansions && w.ts.done.Load() > 0 {
		return ErrBudget
	}
	return nil
}

// flush publishes the residual local expansion count and enforces the
// budget at the branch boundary. The enforcement here is load-bearing:
// checkAbort only tests the budget every expansionBatch units of
// locally accumulated work, and on branch-cheap drains (a few dozen
// charged units per branch under incremental reuse and pruning) the
// local counter is reset by this flush before ever reaching the batch
// size — without the test below, small probe budgets were ignored
// entirely and the queue drained on wall clock alone.
func (w *searcher) flush() {
	if w.local > 0 {
		total := w.ts.expansions.Add(w.local)
		w.local = 0
		if total > w.ts.maxExpansions && !w.ts.stop.Load() {
			w.ts.fail(ErrBudget)
		}
	}
}

func (w *searcher) step(u int, d ring.Direction) int {
	if d == ring.CW {
		if u+1 == w.n {
			return 0
		}
		return u + 1
	}
	if u == 0 {
		return w.n - 1
	}
	return u - 1
}

// analyze explores the adversary-reachable state graph under the current
// table. It returns win=true when a collision or a fair starvation lasso
// is forced using only defined entries; otherwise it reports an
// undefined observation's id (legal != 0) for the table search to branch
// on, or legal == 0 when the table already determines all behavior.
func (w *searcher) analyze() (win bool, needed int32, legal uint8, err error) {
	w.tab.reset()
	w.waiters = w.waiters[:0]
	w.states = w.states[:0]
	w.cont = w.cont[:0]
	w.info = w.info[:0]
	w.edges = w.edges[:0]
	full := uint64(1)<<uint(w.n) - 1

	for _, st := range w.ts.starts {
		if w.quotient {
			st, _ = w.canonState(st)
		}
		if _, ok := w.tab.lookup(st); ok {
			continue
		}
		w.intern(st, ring.ContRefresh(0, st.occupied, w.n))
	}
	w.numStarts = int32(len(w.states))

	// BFS: appending interned states makes the slice its own queue.
	for id := int32(0); int(id) < len(w.states); id++ {
		if err := w.checkAbort(); err != nil {
			return false, 0, 0, err
		}
		if w.expand(id) {
			return true, 0, 0, nil // collision forced
		}
		if w.info[id].allStayDeadlock && w.cont[id] != full {
			// Nothing ever moves again and the ring is not clear: a fair
			// (all robots cycle with Stay) starvation of the task.
			return true, 0, 0, nil
		}
	}

	// No collision, no deadlock win. Hunt for a fair starvation loop,
	// restricted to non-trivial strongly connected components of the
	// non-stay edge graph (only they can carry cycles) and with
	// iteratively deepened length caps (adversary wins are usually
	// short), never exceeding MaxCycleLen.
	w.computeSCCs()
	var caps [3]int
	for _, lengthCap := range w.lengthCaps(&caps) {
		for id := int32(0); int(id) < len(w.states); id++ {
			if w.scc[id] < 0 {
				continue // trivial component: no cycle through here
			}
			bad, err := w.findBadCycle(id, lengthCap)
			if err != nil {
				return false, 0, 0, err
			}
			if bad {
				return true, 0, 0, nil
			}
		}
	}
	if bad, err := w.huntNonSimple(nil); bad || err != nil {
		if err != nil {
			return false, 0, 0, err
		}
		return true, 0, 0, nil
	}

	best, bestMask := w.selectNeeded()
	return false, best, bestMask, nil
}

// lengthCaps fills the iterative-deepening schedule of the lasso hunt
// into the caller's array: adversary wins are usually short, so short
// caps run first, never exceeding MaxCycleLen.
func (w *searcher) lengthCaps(caps *[3]int) []int {
	*caps = [3]int{6, 12, w.ts.maxCycleLen}
	if w.ts.maxCycleLen <= 6 {
		return caps[2:]
	}
	if w.ts.maxCycleLen <= 12 {
		caps[1] = w.ts.maxCycleLen
		return caps[:2]
	}
	return caps[:]
}

// selectNeeded picks the branching observation: the undefined
// observation with the highest score, ties broken by fewer legal
// decisions, then ObsKey order. With pruning on, the order is
// refutation-guided: score = waiting-state count + pruneCreditWeight ×
// refutation credit. Binding the most-waited observation constrains
// the most states at once — refuting subtrees surface before the
// combinatorial bulk, which is worth orders of magnitude on the deep
// drains ((4,9): 145 986 → 89 explored tables, with the dominance probe
// and per-tier credits; prune.go). The credit term steers later
// siblings toward observations whose bindings have already refuted
// branches elsewhere in the tree. The NoPrune oracle scores every
// observation zero, which keeps the historical choice: fewest legal
// decisions (smallest fan-out first keeps the table tree narrow), then
// ObsKey order.
//
// The argmax is total (score, fan-out, key), so the choice is
// independent of waiter registration order — which differs between
// incremental and full re-analysis — and of the dense ids, which
// depend on worker scheduling. One pass over the waiters counts each
// distinct observation; the table and the credits are then consulted
// once per distinct observation. The defined-in-table filter (by the
// ids materialize stamped) is defensive: registrations only ever happen
// for unknown observations and incremental adoption drops entries the
// branch's new binding resolved.
func (w *searcher) selectNeeded() (int32, uint8) {
	w.aggEpoch++
	w.agg = w.agg[:0]
	for i := range w.waiters {
		e := &w.waiters[i]
		sl := w.slot(e.oid)
		if sl.agg == w.aggEpoch {
			w.agg[sl.at].count++
			continue
		}
		sl.agg, sl.at = w.aggEpoch, int32(len(w.agg))
		w.agg = append(w.agg, obsAgg{oid: e.oid, count: 1, legal: e.legal})
	}
	pr := w.ts.prune
	var best int32
	var bestMask uint8
	bestScore := int64(-1)
	bestOpts := 1 << 30
	for j := range w.agg {
		a := &w.agg[j]
		if _, bound := w.decision(a.oid); bound {
			continue
		}
		var score int64
		if pr != nil {
			score = int64(a.count) + pruneCreditWeight*pr.creditOf(a.oid)
		}
		opts := bits.OnesCount8(a.legal)
		if score > bestScore || (score == bestScore && (opts < bestOpts ||
			(opts == bestOpts && w.ts.obs.key(a.oid).Less(w.ts.obs.key(best))))) {
			best, bestMask, bestScore, bestOpts = a.oid, a.legal, score, opts
		}
	}
	return best, bestMask
}

// intern binds a new state to the next dense id with its stem
// contamination, growing the parallel arrays.
func (w *searcher) intern(st state, cm uint64) int32 {
	id := int32(len(w.states))
	w.tab.getOrPut(st, id)
	w.states = append(w.states, st)
	w.cont = append(w.cont, cm)
	w.info = append(w.info, nodeInfo{})
	return id
}

// edgeTo interns the target state of an edge, deriving its stem
// contamination from the source state's on first discovery. Under the
// symmetry quotient the target is canonicalized first; the returned
// isometry maps the source-frame post-move state onto the interned
// representative (identity when quotienting is off) and must be
// recorded on the edge.
func (w *searcher) edgeTo(from int32, next state, movesCW, movesCCW uint64) (int32, isom) {
	g := isoIdentity
	can := next
	if w.quotient {
		can, g = w.canonState(next)
	}
	if id, ok := w.tab.lookup(can); ok {
		return id, g
	}
	cm := w.cont[from]
	if movesCW|movesCCW != 0 {
		cm = contApply(cm, movesCW, movesCCW, next.occupied, w.n)
	}
	if g != isoIdentity {
		cm = g.edgeMask(cm, w.n)
	}
	return w.intern(can, cm), g
}

// expand lists the adversary's options at a state into the edge arena.
// It reports whether the adversary can force a collision here. The
// listing is a pure function of (state, table): re-expanding a state
// under a larger table appends a fresh window whose edge sequence is
// exactly what a from-scratch analyze of that table would produce —
// the property incremental re-analysis rests on.
func (w *searcher) expand(id int32) (collision bool) {
	w.expanded++
	st := w.states[id]
	ni := nodeInfo{edgeOff: int32(len(w.edges))}
	unknowns := false
	movers := false
	pendingCount := 0

	// Pending executions (no table lookups needed).
	if st.anyPending() {
		for occ := st.occupied; occ != 0; occ &= occ - 1 {
			u := bits.TrailingZeros64(occ)
			dir, ok := st.pendingAt(u)
			if !ok {
				continue
			}
			pendingCount++
			movers = true
			to := w.step(u, dir)
			if st.occupiedAt(to) {
				return true
			}
			next := st.clearPending(u)
			next.occupied = next.occupied&^(1<<uint(u)) | 1<<uint(to)
			var mcw, mccw uint64
			if dir == ring.CW {
				mcw = 1 << uint(u)
			} else {
				mccw = 1 << uint(u)
			}
			tid, g := w.edgeTo(id, next, mcw, mccw)
			w.edges = append(w.edges, edge{
				to: tid, iso: g, acts: 1 << uint(u), movesCW: mcw, movesCCW: mccw,
			})
		}
	}

	// Fused and pending Look+Compute actions.
	os := w.ts.obs.get(st.occupied)
	for i := range os.infos {
		oi := &os.infos[i]
		if _, hasPending := st.pendingAt(oi.node); hasPending {
			continue
		}
		d, known := w.decision(oi.oid)
		if !known {
			unknowns = true
			w.waiters = append(w.waiters, waiter{oid: oi.oid, id: id, legal: oi.legal})
			continue
		}
		if d == DStay {
			ni.stayable |= 1 << uint(oi.node)
			w.edges = append(w.edges, edge{to: id, acts: 1 << uint(oi.node), stay: true})
			continue
		}
		movers = true
		dirs, nd := decisionDirs(d, oi.loDir)
		// Fused single activation: Look+Compute+Move atomically.
		for j := 0; j < nd; j++ {
			to := w.step(oi.node, dirs[j])
			if st.occupiedAt(to) {
				return true // defensive; legal masks exclude blocked moves
			}
			next := st
			next.occupied = next.occupied&^(1<<uint(oi.node)) | 1<<uint(to)
			var mcw, mccw uint64
			if dirs[j] == ring.CW {
				mcw = 1 << uint(oi.node)
			} else {
				mccw = 1 << uint(oi.node)
			}
			tid, g := w.edgeTo(id, next, mcw, mccw)
			w.edges = append(w.edges, edge{
				to: tid, iso: g, acts: 1 << uint(oi.node), movesCW: mcw, movesCCW: mccw,
			})
		}
		// Split Look (pending created, move later) when the tier allows.
		if pendingCount < w.pendingLimit {
			for j := 0; j < nd; j++ {
				next := st.withPending(oi.node, dirs[j])
				tid, g := w.edgeTo(id, next, 0, 0)
				w.edges = append(w.edges, edge{to: tid, iso: g, acts: 1 << uint(oi.node)})
			}
		}
	}

	// Simultaneous fused activation of whole same-observation groups:
	// the adversary's classic symmetry exploit (Lemma 7, Theorem 4, the
	// B8 rotation of case (4,8)).
	for _, g := range os.groups {
		d, known := w.decision(os.infos[g[0]].oid)
		if !known || d == DStay {
			continue
		}
		w.groupBuf = w.groupBuf[:0]
		for _, gi := range g {
			if _, hasPending := st.pendingAt(os.infos[gi].node); !hasPending {
				w.groupBuf = append(w.groupBuf, os.infos[gi])
			}
		}
		if len(w.groupBuf) < 2 {
			continue
		}
		if w.enumGroupCombos(id, st, d, 0) {
			return true
		}
	}

	ni.allStayDeadlock = !unknowns && !movers
	ni.edgeLen = int32(len(w.edges)) - ni.edgeOff
	w.info[id] = ni
	return false
}

// decisionDirs resolves a moving decision into candidate directions
// without allocating. Deterministic decisions contribute one direction;
// Either contributes both (the adversary resolves it).
func decisionDirs(d Decision, loDir ring.Direction) ([2]ring.Direction, int) {
	switch d {
	case DTowardLo:
		return [2]ring.Direction{loDir}, 1
	case DTowardHi:
		return [2]ring.Direction{loDir.Opposite()}, 1
	case DEither:
		return [2]ring.Direction{ring.CW, ring.CCW}, 2
	}
	return [2]ring.Direction{}, 0
}

// enumGroupCombos enumerates the adversary's direction resolutions for
// the filtered group in w.groupBuf, writing candidates into w.dirs.
func (w *searcher) enumGroupCombos(id int32, st state, d Decision, idx int) (collision bool) {
	if idx == len(w.groupBuf) {
		return w.applyGroupMove(id, st)
	}
	dirs, nd := decisionDirs(d, w.groupBuf[idx].loDir)
	for j := 0; j < nd; j++ {
		w.dirs[idx] = dirs[j]
		if w.enumGroupCombos(id, st, d, idx+1) {
			return true
		}
	}
	return false
}

// groupMoveMasks resolves the simultaneous moves of w.groupBuf along
// w.dirs into (targets, origins) masks, reporting a collision when two
// movers end on one node or a mover lands on a robot that did not move.
// A simultaneous swap of adjacent robots is conservatively treated as
// legal (configuration unchanged), keeping the modeled adversary no
// stronger than the paper's. Shared by the expansion's group step and
// the pre-enqueue dominance probe (prune.go), so the two can never
// disagree about what collides.
func (w *searcher) groupMoveMasks(st state) (targets, origins uint64, collision bool) {
	for i := range w.groupBuf {
		to := w.step(w.groupBuf[i].node, w.dirs[i])
		tb := uint64(1) << uint(to)
		if targets&tb != 0 {
			return 0, 0, true // two movers on one node
		}
		targets |= tb
		origins |= 1 << uint(w.groupBuf[i].node)
	}
	return targets, origins, (st.occupied&^origins)&targets != 0
}

// applyGroupMove executes the simultaneous moves of w.groupBuf along
// w.dirs, reporting a collision instead of an edge when the resolution
// collides (see groupMoveMasks).
func (w *searcher) applyGroupMove(id int32, st state) (collision bool) {
	targets, origins, collides := w.groupMoveMasks(st)
	if collides {
		return true
	}
	var mcw, mccw uint64
	for i := range w.groupBuf {
		if w.dirs[i] == ring.CW {
			mcw |= 1 << uint(w.groupBuf[i].node)
		} else {
			mccw |= 1 << uint(w.groupBuf[i].node)
		}
	}
	next := st
	next.occupied = st.occupied&^origins | targets
	to, g := w.edgeTo(id, next, mcw, mccw)
	w.edges = append(w.edges, edge{
		to: to, iso: g, acts: origins, movesCW: mcw, movesCCW: mccw,
	})
	return false
}

// computeSCCs labels every state with its strongly-connected-component
// id over non-stay edges, using -1 for states in trivial (single,
// non-cyclic) components. Iterative Tarjan over dense ids.
func (w *searcher) computeSCCs() {
	nStates := len(w.states)
	w.scc = growI32(w.scc, nStates)
	w.tarIndex = growI32(w.tarIndex, nStates)
	w.tarLow = growI32(w.tarLow, nStates)
	w.onStack = growBool(w.onStack, nStates)
	for i := 0; i < nStates; i++ {
		w.tarIndex[i] = -1
		w.onStack[i] = false
	}
	w.tarStack = w.tarStack[:0]
	w.frames = w.frames[:0]
	w.compSize = w.compSize[:0]
	next := int32(0)

	for root := int32(0); int(root) < nStates; root++ {
		if w.tarIndex[root] >= 0 {
			continue
		}
		w.tarIndex[root] = next
		w.tarLow[root] = next
		next++
		w.tarStack = append(w.tarStack, root)
		w.onStack[root] = true
		w.frames = append(w.frames, tarFrame{id: root})
		for len(w.frames) > 0 {
			f := &w.frames[len(w.frames)-1]
			ni := &w.info[f.id]
			advanced := false
			for f.edge < ni.edgeLen {
				e := &w.edges[ni.edgeOff+f.edge]
				f.edge++
				if e.stay {
					continue
				}
				t := e.to
				if w.tarIndex[t] < 0 {
					w.tarIndex[t] = next
					w.tarLow[t] = next
					next++
					w.tarStack = append(w.tarStack, t)
					w.onStack[t] = true
					w.frames = append(w.frames, tarFrame{id: t})
					advanced = true
					break
				}
				if w.onStack[t] {
					if w.tarIndex[t] < w.tarLow[f.id] {
						w.tarLow[f.id] = w.tarIndex[t]
					}
					if w.tarLow[t] < w.tarLow[f.id] {
						w.tarLow[f.id] = w.tarLow[t]
					}
				}
			}
			if advanced {
				continue
			}
			if len(w.frames) > 1 {
				p := w.frames[len(w.frames)-2].id
				if w.tarLow[f.id] < w.tarLow[p] {
					w.tarLow[p] = w.tarLow[f.id]
				}
			}
			if w.tarLow[f.id] == w.tarIndex[f.id] {
				size := int32(0)
				comp := int32(len(w.compSize))
				for {
					t := w.tarStack[len(w.tarStack)-1]
					w.tarStack = w.tarStack[:len(w.tarStack)-1]
					w.onStack[t] = false
					w.scc[t] = comp
					size++
					if t == f.id {
						break
					}
				}
				w.compSize = append(w.compSize, size)
			}
			w.frames = w.frames[:len(w.frames)-1]
		}
	}
	for i := 0; i < nStates; i++ {
		if w.compSize[w.scc[i]] < 2 && !w.hasMoveSelfLoop(int32(i)) {
			w.scc[i] = -1
		}
	}
}

// hasMoveSelfLoop reports whether a state has a non-stay edge to
// itself. Raw states can never self-loop (every move changes occupancy
// or pending), but under the symmetry quotient an isometric successor
// collapses onto its source — a real one-step cycle that the
// single-state-component filter must not discard (the k = 1 rings are
// the extreme case: the whole orbit is one canonical state).
func (w *searcher) hasMoveSelfLoop(id int32) bool {
	ni := &w.info[id]
	for x := int32(0); x < ni.edgeLen; x++ {
		if e := &w.edges[ni.edgeOff+x]; !e.stay && e.to == id {
			return true
		}
	}
	return false
}

// revisitLengthCap bounds the bounded-multiplicity hunt independently
// of MaxCycleLen. A non-simple projected loop revisits its repeated
// state within a short window — the (5,8) blind-spot loop needs only
// length 4, and 6 doubles that margin — while hunting revisit paths at
// the full 24-step cap roughly doubled the per-branch cost of small
// solves for zero extra catches on any measured case: the candidates it
// added just burned fairness/badness lift passes.
const revisitLengthCap = 6

// huntNonSimple is the bounded-multiplicity complement of the main
// lasso hunt, fixing the quotient's blind spot for raw starvation
// cycles whose canonical projection revisits a state (two orbit-mates
// on one loop — the PR 3 follow-up): the simple-cycle DFS will not
// traverse a quotient state twice, so such loops were only caught
// deeper in the table tree, after more branching. A projected loop can
// only be non-simple when some edge on it renamed its target (a
// non-identity isometry), so the hunt is gated behind a profile check:
// only components carrying an in-component non-identity-isometry edge
// are hunted, from every member (the non-restoring visit marks make a
// single hunt incomplete, and restricting heads to the renaming edge's
// endpoints measurably loses catches), with the per-candidate lift
// validation reserved for projections that actually revisit a state.
// The pass is free with quotienting off and on asymmetric frontiers.
// skip optionally suppresses heads the incremental path has proven
// unchanged (same guard as the main hunt).
func (w *searcher) huntNonSimple(skip func(id int32) bool) (bool, error) {
	// Mark the components carrying an in-component non-identity-isometry
	// edge; only their members can head a non-simple projected loop (the
	// revisited state's two frames must differ, so some loop edge
	// renames). Every member hunts, not just the renaming edge's
	// endpoints: the non-restoring visit marks below make each single
	// hunt incomplete, and the known blind-spot loops are reliably found
	// only when all loop members get a turn — restricting heads to edge
	// endpoints measurably loses catches.
	nc := len(w.compSize)
	w.compIso = growBool(w.compIso, nc)
	for c := 0; c < nc; c++ {
		w.compIso[c] = false
	}
	any := false
	for id := int32(0); int(id) < len(w.states); id++ {
		c := w.scc[id]
		if c < 0 || w.compIso[c] {
			continue
		}
		ni := &w.info[id]
		for x := int32(0); x < ni.edgeLen; x++ {
			e := &w.edges[ni.edgeOff+x]
			if !e.stay && e.iso != isoIdentity && w.scc[e.to] == c {
				w.compIso[c] = true
				any = true
				break
			}
		}
	}
	if !any {
		return false, nil
	}
	capLen := w.ts.maxCycleLen
	if capLen > revisitLengthCap {
		capLen = revisitLengthCap
	}
	for id := int32(0); int(id) < len(w.states); id++ {
		if w.scc[id] < 0 || !w.compIso[w.scc[id]] {
			continue
		}
		if skip != nil && skip(id) {
			continue
		}
		bad, err := w.findBadCycleRevisit(id, capLen)
		if err != nil || bad {
			return bad, err
		}
	}
	return false, nil
}

// findBadCycleRevisit is findBadCycle with one revisit allowed per
// quotient state: each state may be entered up to twice per hunt (the
// head excluded — a loop closing at the head with a non-identity net
// isometry is already lifted by cycleIsFairAndBad's multi-pass check).
// Like the simple hunt, visit marks are not restored on backtrack, so
// the cost stays linear-ish in the component (at most twice the simple
// hunt) rather than enumerating paths.
//
// The epoch advances by two and stamps visitEpoch−1 (one visit) and
// visitEpoch (two visits). Stamping *at most* the new epoch value
// matters: the visited array and epoch counter are shared with
// findBadCycle and recomputeCont, whose single-increment epochs test
// equality — a mark above the counter would alias into the next
// pass's fresh epoch and make it skip never-visited states.
func (w *searcher) findBadCycleRevisit(head int32, lengthCap int) (bool, error) {
	w.visited = growU64(w.visited, len(w.states))
	w.visitEpoch += 2
	w.visited[head] = w.visitEpoch // both visits used: never re-entered
	w.path = w.path[:0]
	return w.dfsCycleRevisit(head, head, w.scc[head], lengthCap)
}

func (w *searcher) dfsCycleRevisit(cur, target, comp int32, lengthCap int) (bool, error) {
	if len(w.path) >= lengthCap {
		return false, nil
	}
	ni := &w.info[cur]
	// Two passes over the window: edges whose isometry renames first
	// (pass 0), identity edges second — the renaming path must be
	// marked before the plain one, or the non-restoring visit marks can
	// wall off the non-simple loop this hunt exists to find.
	for pass := 0; pass < 2; pass++ {
		for x := int32(0); x < ni.edgeLen; x++ {
			e := w.edges[ni.edgeOff+x]
			if e.stay || (e.iso != isoIdentity) == (pass == 1) {
				continue
			}
			if err := w.checkAbort(); err != nil {
				return false, err
			}
			if e.to == target {
				// Validate only candidates whose projection actually
				// revisits a state: simple loops through this head are
				// the main hunt's job (it ran first, at a cap at least
				// this deep), and re-lifting them here roughly doubled
				// the cost of small solves for zero extra catches.
				if !w.pathRevisits(target) {
					continue
				}
				w.cycle = append(w.cycle[:0], w.path...)
				w.cycle = append(w.cycle, e)
				bad, err := w.cycleIsFairAndBad(target)
				if err != nil {
					return false, err
				}
				if bad {
					return true, nil
				}
				continue
			}
			v := w.visited[e.to]
			if w.scc[e.to] != comp || v >= w.visitEpoch {
				continue // out of component, or both visits used
			}
			if v == w.visitEpoch-1 {
				w.visited[e.to] = w.visitEpoch
			} else {
				w.visited[e.to] = w.visitEpoch - 1
			}
			w.path = append(w.path, e)
			found, err := w.dfsCycleRevisit(e.to, target, comp, lengthCap)
			w.path = w.path[:len(w.path)-1]
			if err != nil || found {
				return found, err
			}
		}
	}
	return false, nil
}

// findBadCycle searches for a loop through the head state that is fair
// and never clears the ring, starting from the stem contamination. The
// search is confined to the head's strongly connected component and
// bounded by lengthCap.
func (w *searcher) findBadCycle(head int32, lengthCap int) (bool, error) {
	w.visited = growU64(w.visited, len(w.states))
	w.visitEpoch++
	w.visited[head] = w.visitEpoch
	w.path = w.path[:0]
	return w.dfsCycle(head, head, w.scc[head], lengthCap)
}

func (w *searcher) dfsCycle(cur, target, comp int32, lengthCap int) (bool, error) {
	if len(w.path) >= lengthCap {
		return false, nil
	}
	ni := &w.info[cur]
	for x := int32(0); x < ni.edgeLen; x++ {
		e := w.edges[ni.edgeOff+x]
		if e.stay {
			continue
		}
		if err := w.checkAbort(); err != nil {
			return false, err
		}
		if e.to == target {
			w.cycle = append(w.cycle[:0], w.path...)
			w.cycle = append(w.cycle, e)
			bad, err := w.cycleIsFairAndBad(target)
			if err != nil {
				return false, err
			}
			if bad {
				return true, nil
			}
			continue
		}
		if w.scc[e.to] != comp || w.visited[e.to] == w.visitEpoch {
			continue
		}
		w.visited[e.to] = w.visitEpoch
		w.path = append(w.path, e)
		found, err := w.dfsCycle(e.to, target, comp, lengthCap)
		w.path = w.path[:len(w.path)-1]
		if err != nil || found {
			return found, err
		}
	}
	return false, nil
}

// cycleIsFairAndBad checks the winning conditions on the candidate loop
// in w.cycle anchored at head (see lassoVerdict) and charges the check's
// units to the expansion budget. The verdict is a pure function of the
// loop's content, so it comes from the worker's lassoMemo when the same
// loop was checked before. Either way the same units are charged as
// one checkAbort each (in bulk while they stay below the next flush),
// so a budget or stop trips at the same unit.
func (w *searcher) cycleIsFairAndBad(head int32) (bool, error) {
	var bad bool
	var units int32
	if key, ok := w.lassoKey(head); ok {
		h := lassoHash(key)
		if s, hit := w.memo.lookup(key, h); hit {
			bad, units = s.bad, s.units
		} else {
			bad, units = w.lassoVerdict(head)
			w.memo.store(s, key, h, bad, units)
		}
	} else {
		bad, units = w.lassoVerdict(head)
	}
	if w.local+int64(units) < expansionBatch {
		w.local += int64(units)
		return bad, nil
	}
	for ; units > 0; units-- {
		if err := w.checkAbort(); err != nil {
			return false, err
		}
	}
	return bad, nil
}

// lassoKey writes into w.memoKey every word lassoVerdict reads for the
// loop in w.cycle anchored at head: the ring size and the head's stem
// contamination, then per edge its target's state and stayable mask
// and the edge's isometry, activations and moves. The loop closes at
// head, so the last edge's target words are the head's state and
// stayable mask. Each mask fits in 32 bits at maxRingSize, and only
// pending word 0 is populated there, so an edge packs into four words.
// ok is false for loops too long to cache.
func (w *searcher) lassoKey(head int32) (key []uint64, ok bool) {
	size := 1 + 4*len(w.cycle)
	if size > lassoMemoMaxKey {
		return nil, false
	}
	key = growU64(w.memoKey, size)
	w.memoKey = key
	key[0] = w.cont[head] | uint64(w.n)<<32
	for i := range w.cycle {
		e := &w.cycle[i]
		st := w.states[e.to]
		k := key[1+4*i : 5+4*i]
		k[0] = st.occupied | w.info[e.to].stayable<<32
		k[1] = st.pending[0]
		k[2] = e.acts | e.movesCW<<32
		k[3] = e.movesCCW | uint64(e.iso)<<32
	}
	return key, true
}

// lassoVerdict decides the loop in w.cycle anchored at head, with
// contamination entering the loop as in the head's stem, and returns
// the budget units the check costs. Under the symmetry quotient a loop
// of canonical states is a real execution only after lifting:
// composing the edges' isometries yields the net relabeling ψ one pass
// applies, and the true cycle closes after order(ψ) passes. The checks
// below run on that lift — with quotienting off every isometry is the
// identity, ψ = id, and they reduce to the plain single-pass checks.
// Each fairness and contamination pass costs one unit: the passes
// dominate the cost of deep lasso hunts, and leaving them free let
// pathological loops exceed the budget's intent.
func (w *searcher) lassoVerdict(head int32) (bad bool, units int32) {
	// Net isometry of one pass: each edge maps its source frame onto its
	// target's canonical frame, so walking the loop in the head's (lift)
	// frame composes the inverses.
	psi := isoIdentity
	for i := range w.cycle {
		psi = psi.compose(w.cycle[i].iso.inverse(w.n), w.n)
	}

	// --- Fairness over the lifted cycle (order(ψ) quotient passes) ---
	st := w.states[head]
	acted := uint64(0)
	stationary := st.occupied
	w.visits = append(w.visits[:0], cycleVisit{id: head, v: isoIdentity})
	v := isoIdentity
	for pass := psi.order(w.n); pass > 0; pass-- {
		units++
		for i := range w.cycle {
			e := &w.cycle[i]
			acted |= v.nodeMask(e.acts, w.n)
			v = v.compose(e.iso.inverse(w.n), w.n)
			stationary &= v.nodeMask(w.states[e.to].occupied, w.n)
			w.visits = append(w.visits, cycleVisit{id: e.to, v: v})
		}
	}
	for rest := stationary &^ acted; rest != 0; rest &= rest - 1 {
		u := bits.TrailingZeros64(rest)
		if _, hasPending := st.pendingAt(u); hasPending {
			// A pending move held forever violates the model's
			// finite-cycle requirement: unfair.
			return false, units
		}
		canStay := false
		for _, vis := range w.visits {
			sv := w.states[vis.id]
			// u lives in the lift frame; the visited state's data is in
			// its canonical frame.
			uc := vis.v.inverse(w.n).node(u, w.n)
			if _, p := sv.pendingAt(uc); p {
				continue
			}
			if w.info[vis.id].stayable&(1<<uint(uc)) != 0 {
				canStay = true
				break
			}
		}
		if !canStay {
			return false, units
		}
	}

	// --- Badness: iterate the lifted loop from the stem contamination
	// until the (contamination, relabeling) pair at the loop head
	// repeats; if no pass in the repeating regime touches all-clear, the
	// adversary wins. ---
	full := uint64(1)<<uint(w.n) - 1
	cm := w.cont[head]
	v = isoIdentity
	w.maskSeen = w.maskSeen[:0]
	w.isoSeen = w.isoSeen[:0]
	w.passClear = w.passClear[:0]
	const maxPasses = 1 << 16 // defensive; the head pair repeats almost immediately
	for iter := 0; iter < maxPasses; iter++ {
		units++
		for first, m := range w.maskSeen {
			if m != cm || w.isoSeen[first] != v {
				continue
			}
			// Passes first..iter−1 repeat forever.
			for i := first; i < iter; i++ {
				if w.passClear[i] {
					return false, units
				}
			}
			return true, units
		}
		w.maskSeen = append(w.maskSeen, cm)
		w.isoSeen = append(w.isoSeen, v)
		clearThisPass := cm == full
		for i := range w.cycle {
			e := &w.cycle[i]
			if e.movesCW|e.movesCCW == 0 {
				v = v.compose(e.iso.inverse(w.n), w.n)
				continue
			}
			mcw, mccw := v.moveMasks(e.movesCW, e.movesCCW, w.n)
			v = v.compose(e.iso.inverse(w.n), w.n)
			cm = contApply(cm, mcw, mccw, v.nodeMask(w.states[e.to].occupied, w.n), w.n)
			if cm == full {
				clearThisPass = true
			}
		}
		w.passClear = append(w.passClear, clearThisPass)
	}
	return false, units // defensive: pass budget exhausted without repetition
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// pathRevisits reports whether the candidate loop w.path (closing back
// at target) visits any state twice — the only candidates worth
// validating in the bounded-multiplicity hunt. Paths are at most
// revisitLengthCap long, so the quadratic scan is a handful of word
// compares.
func (w *searcher) pathRevisits(target int32) bool {
	for i := range w.path {
		if w.path[i].to == target {
			return true
		}
		for j := i + 1; j < len(w.path); j++ {
			if w.path[j].to == w.path[i].to {
				return true
			}
		}
	}
	return false
}
