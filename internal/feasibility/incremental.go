package feasibility

import "sync/atomic"

// This file implements incremental sibling-branch re-analysis for the
// decision-table search. A child branch's table differs from its
// parent's by exactly one new entry, yet the searcher used to rebuild
// the entire reachable game graph per branch. Instead, a branch that
// fans out now publishes a snapshot of its finished analysis — the
// interned state graph, adjacency arena, stem contaminations, SCC
// partition, waiter registry and the intern-table image — and each
// child adopts it and re-does only the work the new entry can change:
//
//   - states whose expansion registered the newly-bound observation as
//     unknown (the waiter registry is the reverse index) are
//     re-expanded under the child table, which can add edges, flip
//     stayable bits, force collisions, or complete a deadlock;
//   - everything newly reachable from those states is expanded as in a
//     full analyze (the frontier);
//   - stem contaminations are replayed canonically over the final graph
//     (recomputeCont), reproducing bit-for-bit the values a full
//     analyze's discovery BFS would have assigned — new edges can
//     re-route discovery through previously-expanded states, which is
//     how a new entry creates wins "behind" the frontier;
//   - Tarjan is re-run (pure slice walking, negligible next to
//     expansion), and the expensive starvation-lasso hunts are skipped
//     for every head whose inputs provably match the parent's already
//     refuted hunt: its component is the same state set with the same
//     edge windows (no re-expanded or new member, monotone SCC growth
//     pins set equality by size), and its stem contamination is
//     unchanged.
//
// The child's per-branch outputs (win verdict, branching observation,
// legal mask) are exactly those of a full analyze of the same table —
// the expansion listing is a pure function of (state, table), the
// reachable set and edge windows therefore coincide, contamination is
// replayed in canonical discovery order, and a clean head's hunt was
// refuted by the parent over identical inputs. Solver.NoIncremental
// retains the full-reanalysis path as the differential oracle
// (incremental_test.go pins verdict, tier, survivor, tree shape and
// per-branch graph sizes).
//
// Budget accounting (satellite of the PR): re-expansion and frontier
// work is charged through the same checkAbort units as full expansion,
// and the lasso hunts and their fairness/contamination passes keep
// their PR 3 charging; the bookkeeping passes (snapshot copy,
// contamination replay, Tarjan) are word-op cheap and stay uncharged in
// both modes, exactly like Tarjan always was.

// branchSnap is a published branch analysis. It is immutable once
// pushed (workers only read it), shared by the branch's children, and
// recycled through tierSearch.snapPool when the last child releases it.
// Publishing is allocation-free in steady state: the worker's live
// arrays move into the snapshot and the worker inherits the pooled
// capacity in exchange.
type branchSnap struct {
	refs      atomic.Int32
	states    []state
	cont      []uint64
	info      []nodeInfo
	edges     []edge
	waiters   []waiter
	scc       []int32
	compSize  []int32
	tab       internTable
	numStarts int32
}

// releaseSnap drops one child's reference, recycling the snapshot's
// arrays once no child needs them.
func (ts *tierSearch) releaseSnap(s *branchSnap) {
	if s.refs.Add(-1) == 0 {
		ts.snapPool.Put(s)
	}
}

// publishSnap freezes the worker's finished analysis into a snapshot
// shared by the branch's children (refs = children) and swaps pooled
// backing arrays into the worker in exchange.
func (w *searcher) publishSnap(children int) *branchSnap {
	s, _ := w.ts.snapPool.Get().(*branchSnap)
	if s == nil {
		s = &branchSnap{}
	}
	w.states, s.states = s.states[:0], w.states
	w.cont, s.cont = s.cont[:0], w.cont
	w.info, s.info = s.info[:0], w.info
	w.edges, s.edges = s.edges[:0], w.edges
	w.waiters, s.waiters = s.waiters[:0], w.waiters
	w.scc, s.scc = s.scc[:0], w.scc
	w.compSize, s.compSize = s.compSize[:0], w.compSize
	w.tab, s.tab = s.tab, w.tab
	s.numStarts = w.numStarts
	s.refs.Store(int32(children))
	return s
}

// analyzeIncremental is analyze for a branch carrying its parent's
// snapshot: same contract, same outputs, but expansion work
// proportional to the frontier the branch's one new table entry
// unlocks. nd.oid is that entry's observation; the decision is already
// materialized in the searcher's table view.
func (w *searcher) analyzeIncremental(nd *tableNode) (win bool, needed int32, legal uint8, err error) {
	snap := nd.snap
	inherited := int32(len(snap.states))

	// Adopt: copy the graph into the worker's reusable buffers (the
	// snapshot stays immutable for sibling workers). cont starts as the
	// parent's canonical values — provisional stems for edgeTo during
	// re-expansion, replaced wholesale by recomputeCont below.
	w.states = append(w.states[:0], snap.states...)
	w.cont = append(w.cont[:0], snap.cont...)
	w.info = append(w.info[:0], snap.info...)
	w.edges = append(w.edges[:0], snap.edges...)
	if int(snap.tab.count)*4 <= len(snap.tab.keys) {
		// Sparse image (tiny graph in a grown table): re-inserting the
		// states is cheaper than copying the slot arrays, and the
		// mapping is identical — ids are dense insertion order.
		w.tab.reset()
		for id := range w.states {
			w.tab.getOrPut(w.states[id], int32(id))
		}
	} else {
		w.tab.adoptFrom(&snap.tab)
	}
	w.numStarts = snap.numStarts
	w.prevCont, w.prevScc, w.prevCompSize = snap.cont, snap.scc, snap.compSize

	// Dirty set: the states whose expansion waits on the newly-bound
	// observation, deduplicated (a state may have registered it through
	// several robots).
	w.dirtyMark = growU64(w.dirtyMark, int(inherited))
	w.dirtyEpoch++
	w.dirtyList = w.dirtyList[:0]
	for i := range snap.waiters {
		e := &snap.waiters[i]
		if e.oid == nd.oid && w.dirtyMark[e.id] != w.dirtyEpoch {
			w.dirtyMark[e.id] = w.dirtyEpoch
			w.dirtyList = append(w.dirtyList, e.id)
		}
	}
	// Inherit the waiter registry minus the now-bound observation and
	// minus every dirty state: re-expansion re-registers a dirty state's
	// remaining unknowns, so the registry carries no stale entries down
	// the chain.
	w.waiters = w.waiters[:0]
	for i := range snap.waiters {
		e := &snap.waiters[i]
		if e.oid == nd.oid || w.dirtyMark[e.id] == w.dirtyEpoch {
			continue
		}
		w.waiters = append(w.waiters, *e)
	}

	// Re-expand the dirty states under the child table (their windows
	// are replaced; the old windows become arena garbage), then expand
	// the newly-discovered frontier exactly as the full BFS would.
	// Dirty states are visited in collision-likelihood order — pending
	// executions first, discovery order as the fallback within each
	// rank — so win-by-collision branches short-circuit as early as
	// possible (the PR 4 follow-up: a pending move fired into a changed
	// occupancy is the cheapest win to detect). The per-branch outputs
	// are order-independent: a win is a win whichever dirty state
	// trips it first, and a non-winning branch re-expands every dirty
	// state regardless, with selectNeeded and the contamination replay
	// both insensitive to interning order.
	w.orderDirtyByCollision()
	for _, id := range w.dirtyList {
		if err := w.checkAbort(); err != nil {
			return false, 0, 0, err
		}
		if w.expand(id) {
			return true, 0, 0, nil // collision forced
		}
	}
	for id := inherited; int(id) < len(w.states); id++ {
		if err := w.checkAbort(); err != nil {
			return false, 0, 0, err
		}
		if w.expand(id) {
			return true, 0, 0, nil
		}
	}

	// The graph is final: replay stem contaminations in canonical
	// discovery order, then run the deadlock check the full BFS
	// interleaves (new edges can re-route discovery, so inherited
	// states' stems — and deadlock verdicts — may change too).
	w.recomputeCont()
	full := uint64(1)<<uint(w.n) - 1
	for id := range w.states {
		if w.info[id].allStayDeadlock && w.cont[id] != full {
			return true, 0, 0, nil
		}
	}

	w.computeSCCs()
	w.markDirtyComps(inherited)
	cleanHead := func(id int32) bool {
		// Identical inputs to the parent's hunt from this head (same
		// component set, same edge windows, same stem), which found
		// nothing — skip it. Sound for the bounded-multiplicity pass
		// too: the parent ran the same pass over the same inputs.
		return id < inherited && !w.compDirty[w.scc[id]] && w.cont[id] == w.prevCont[id]
	}
	var caps [3]int
	for _, lengthCap := range w.lengthCaps(&caps) {
		for id := int32(0); int(id) < len(w.states); id++ {
			if w.scc[id] < 0 || cleanHead(id) {
				continue
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
	if bad, err := w.huntNonSimple(cleanHead); bad || err != nil {
		if err != nil {
			return false, 0, 0, err
		}
		return true, 0, 0, nil
	}

	best, bestMask := w.selectNeeded()
	return false, best, bestMask, nil
}

// orderDirtyByCollision reorders w.dirtyList so states holding pending
// executions come first (more pendings first), keeping discovery order
// within each rank. A counting pass over the small pending range keeps
// the reorder allocation-free and deterministic.
func (w *searcher) orderDirtyByCollision() {
	if !w.ts.collisionOrder || len(w.dirtyList) < 2 {
		return
	}
	maxPend := 0
	for _, id := range w.dirtyList {
		if c := w.states[id].pendingCount(); c > maxPend {
			maxPend = c
		}
	}
	if maxPend == 0 {
		return // tier 0, or no pending-holding dirty state: order unchanged
	}
	w.dirtyTmp = append(w.dirtyTmp[:0], w.dirtyList...)
	w.dirtyList = w.dirtyList[:0]
	for rank := maxPend; rank >= 0; rank-- {
		for _, id := range w.dirtyTmp {
			if w.states[id].pendingCount() == rank {
				w.dirtyList = append(w.dirtyList, id)
			}
		}
	}
}

// recomputeCont replays the canonical discovery BFS of a full analyze
// over the final graph and assigns every state the stem contamination
// that BFS would have recorded: sources are visited in discovery order,
// edges in window order, and the first non-stay edge reaching a state
// fixes its stem via the same contApply/edgeMask composition edgeTo
// uses. Start states keep their fully-contaminated refresh.
func (w *searcher) recomputeCont() {
	nStates := len(w.states)
	w.visited = growU64(w.visited, nStates)
	w.visitEpoch++
	w.order = growI32(w.order, nStates)[:0]
	for id := int32(0); id < w.numStarts; id++ {
		w.cont[id] = contRefresh(0, w.states[id].occupied, w.n)
		w.visited[id] = w.visitEpoch
		w.order = append(w.order, id)
	}
	for qi := 0; qi < len(w.order); qi++ {
		id := w.order[qi]
		cm0 := w.cont[id]
		ni := &w.info[id]
		for x := int32(0); x < ni.edgeLen; x++ {
			e := &w.edges[ni.edgeOff+x]
			if e.stay || w.visited[e.to] == w.visitEpoch {
				continue
			}
			w.visited[e.to] = w.visitEpoch
			cm := cm0
			if e.movesCW|e.movesCCW != 0 {
				// The traversal masks live in the source frame; undo the
				// canonicalizing isometry to recover the pre-canonical
				// occupancy the move produced, exactly as edgeTo saw it.
				occPre := w.states[e.to].occupied
				if e.iso != isoIdentity {
					occPre = e.iso.inverse(w.n).nodeMask(occPre, w.n)
				}
				cm = contApply(cm, e.movesCW, e.movesCCW, occPre, w.n)
			}
			if e.iso != isoIdentity {
				cm = e.iso.edgeMask(cm, w.n)
			}
			w.cont[e.to] = cm
			w.order = append(w.order, e.to)
		}
	}
}

// markDirtyComps classifies each non-trivial component of the child
// graph as clean (provably equal, as a state set with identical edge
// windows, to a component the parent already hunted) or dirty. Adding
// edges only ever merges or grows SCCs, so a child component containing
// only inherited, non-re-expanded states that all carried one parent
// label L is a superset of parent component L; equal sizes then pin set
// equality. Any new, re-expanded, or parent-trivial member — including
// the back-reachable states a merge pulls in — dirties the component.
func (w *searcher) markDirtyComps(inherited int32) {
	nc := len(w.compSize)
	w.compDirty = growBool(w.compDirty, nc)
	w.compPrev = growI32(w.compPrev, nc)
	for c := 0; c < nc; c++ {
		w.compDirty[c] = false
		w.compPrev[c] = -2
	}
	for id := int32(0); int(id) < len(w.states); id++ {
		c := w.scc[id]
		if c < 0 || w.compDirty[c] {
			continue
		}
		if id >= inherited || w.dirtyMark[id] == w.dirtyEpoch {
			w.compDirty[c] = true
			continue
		}
		pl := w.prevScc[id]
		if pl < 0 {
			w.compDirty[c] = true
			continue
		}
		if w.compPrev[c] == -2 {
			w.compPrev[c] = pl
		} else if w.compPrev[c] != pl {
			w.compDirty[c] = true
		}
	}
	for c := 0; c < nc; c++ {
		if !w.compDirty[c] && w.compPrev[c] >= 0 && w.compSize[c] != w.prevCompSize[w.compPrev[c]] {
			w.compDirty[c] = true
		}
	}
}
