package feasibility

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the tree-level pruning layer of the table
// search. PR 4 made each branch nearly free (graph-level reuse), so the
// deep drains are bound by the *number of tables explored*; the levers
// here shrink the tree itself. Two cooperating mechanisms, both shared
// across the worker pool and both disabled together by Solver.NoPrune
// (the differential oracle, exactly as NoQuotient and NoIncremental are
// for their layers):
//
//   - Refutation-guided observation ordering (selectNeeded,
//     searcher.go): instead of branching on the undefined observation
//     with the fewest legal decisions, branch on the one with the most
//     waiting states plus a per-tier refutation credit updated on
//     every refuted branch. Binding a widely-waited observation
//     constrains the most states at once, so impossible subtrees
//     surface before the combinatorial bulk — this is the paper's
//     Theorem 5 case-analysis instinct ("pin down the decision the
//     adversary punishes everywhere") made mechanical, and it is the
//     dominant lever: (4,9) falls from 145 986 explored tables to 89,
//     (5,8) from 552 to 116, the (5,9) two-tier ladder from 53 957 to
//     1 536. Credits are reset at tier boundaries: a different pending
//     allowance is a different game, and carrying tier-0 statistics
//     into tier 2 measurably poisons its order ((5,9) explores 16–37×
//     more tables with solve-wide credits).
//
//   - Dominance pruning (searcher.dominatedChild): before a child
//     branch is enqueued, a one-step probe of the states waiting on the
//     newly-bound observation detects decisions that hand the adversary
//     an immediate win — a simultaneous same-observation group
//     activation that collides, or a Stay binding that completes an
//     all-stay deadlock on a still-contaminated ring. Such a child is
//     refuted without ever being queued or analyzed ((5,8): 34 of its
//     116-table tree's children, (4,9): 48, the bounded (3,20) drain
//     probe: 7.3 M). Both probes replicate exactly what the child's own
//     first re-expansion would find, so pruned children are branches
//     the full search provably refutes (the NoPrune contract is exact,
//     not just verdict-level).
//
// There is no memo of refuted subtables: the lazy-binding game has no
// dead table entries, so a refuted subtable almost never recurs inside
// a later table (such a memo measured 0 hits on the (11,3) and (11,6)
// drains at 15–33% of their CPU, and was removed).

// pruneCreditWeight scales the per-observation refutation credit
// against the waiting-state count in selectNeeded. Swept over
// {0, 1, 4, 16} on the paper cases before per-tier credit scoping: 4 is
// the plateau ((4,9) 218 → 127 tables vs credit-free ordering; the
// later per-tier reset moved (5,9) far more than any weight choice).
const pruneCreditWeight = 4

// creditChunk is one block of the per-id credit directory.
type creditChunk [1 << obsChunkBits]atomic.Int64

// pruneState is the pruning state shared by all workers and all tiers
// of one Solve: the per-observation refutation credits read by
// selectNeeded.
//
// Credits are counters indexed by observation id, in a directory of
// fixed-size chunks laid out like obsCache.keys: a chunk is added under
// creditMu and the directory republished whole, so reads and
// increments take no lock. Credits restored from a checkpoint, which
// names observations only by obsHash, sit beside them in imported.
type pruneState struct {
	// obs numbers the solve's observations: ids index credits, and keys
	// give them back for checkpoints.
	obs *obsCache

	creditMu sync.Mutex
	credits  atomic.Pointer[[]*creditChunk]
	// imported maps obsHash → credit restored by importState. It is
	// written only while no worker runs (import, tier reset).
	imported map[uint64]int64
}

// newPruneState allocates only the skeleton; credit chunks are created
// on first write, so small solves never pay for them. oc must number
// every id the state is given.
func newPruneState(oc *obsCache) *pruneState {
	pr := &pruneState{obs: oc}
	pr.credits.Store(new([]*creditChunk))
	return pr
}

// obsHash mixes an observation key into 64 bits (word-level, no string
// hashing for packable views).
func obsHash(o ObsKey) uint64 {
	h := o.Lo.Hash()*0x9e3779b97f4a7c15 + o.Hi.Hash()
	return h ^ h>>32
}

// creditOf reads the accumulated refutation credit of observation oid:
// its own counter plus whatever a checkpoint restored for its obsHash.
// Checkpoints sum credits per hash, so a chance obsHash collision merges
// two observations' credits across a resume, which at worst nudges the
// (heuristic, freely choosable) branching order; the result is still a
// pure function of the checkpoint.
func (pr *pruneState) creditOf(oid int32) int64 {
	var c int64
	if dir := *pr.credits.Load(); int(oid>>obsChunkBits) < len(dir) {
		c = dir[oid>>obsChunkBits][oid&(1<<obsChunkBits-1)].Load()
	}
	if pr.imported != nil {
		c += pr.imported[obsHash(pr.obs.key(oid))]
	}
	return c
}

// resetCredits drops every credit (tier boundary, when credits are
// scoped per tier). Only called while no worker runs.
func (pr *pruneState) resetCredits() {
	pr.imported = nil
	pr.credits.Store(new([]*creditChunk))
}

// addCredit records one refuted branch bound at observation oid.
func (pr *pruneState) addCredit(oid int32) {
	dir := *pr.credits.Load()
	if int(oid>>obsChunkBits) >= len(dir) {
		dir = pr.growCredits(oid)
	}
	dir[oid>>obsChunkBits][oid&(1<<obsChunkBits-1)].Add(1)
}

// growCredits adds chunks until the directory covers oid and
// republishes it.
func (pr *pruneState) growCredits(oid int32) []*creditChunk {
	pr.creditMu.Lock()
	defer pr.creditMu.Unlock()
	dir := *pr.credits.Load()
	for int(oid>>obsChunkBits) >= len(dir) {
		dir = append(dir[:len(dir):len(dir)], new(creditChunk))
	}
	pr.credits.Store(&dir)
	return dir
}

// closeRefuted records that the branch at nd is fully refuted and
// propagates the closure up the table tree: credits the branch's
// binding observation and, when this was the parent's last open child,
// closes the parent in turn. A no-op without pruning; skipped once the
// tier is cancelled (a stopped tier abandons branches without refuting
// them).
func (w *searcher) closeRefuted(nd *tableNode) {
	pr := w.ts.prune
	if pr == nil {
		return
	}
	for nd != nil && nd.parent != nil {
		if w.ts.stop.Load() {
			return
		}
		pr.addCredit(nd.oid)
		p := nd.parent
		if p.openKids.Add(-1) != 0 {
			return
		}
		nd = p
	}
}

// exportState snapshots the refutation credits for checkpoint
// serialization (checkpoint.go): summed per obsHash, imported ones
// included, and sorted by hash so the encoding is deterministic. The
// solver only calls this while the tier is quiesced (workers parked or
// exited), but the counters are read atomically anyway, so the method
// is safe under -race whenever it is reachable.
func (pr *pruneState) exportState() []ckptCredit {
	sums := make(map[uint64]int64, len(pr.imported))
	for h, c := range pr.imported {
		sums[h] += c
	}
	for ci, chunk := range *pr.credits.Load() {
		for j := range chunk {
			if c := chunk[j].Load(); c != 0 {
				sums[obsHash(pr.obs.key(int32(ci<<obsChunkBits|j)))] += c
			}
		}
	}
	var credits []ckptCredit
	for h, c := range sums {
		if c != 0 {
			credits = append(credits, ckptCredit{hash: h, credit: c})
		}
	}
	sort.Slice(credits, func(i, j int) bool { return credits[i].hash < credits[j].hash })
	return credits
}

// importState restores exported credits into a fresh pruneState.
func (pr *pruneState) importState(credits []ckptCredit) {
	if len(credits) > 0 {
		pr.imported = make(map[uint64]int64, len(credits))
		for _, c := range credits {
			pr.imported[c.hash] = c.credit
		}
	}
}

// dominatedChild reports whether binding the observation oid := d
// hands the adversary an immediate win at a state already waiting on
// it, making the child branch refutable without analysis. Both probes
// replicate precisely a check the child's own analysis performs during
// its first dirty re-expansion, so a pruned child is a branch the
// unpruned search would provably close as a win:
//
//   - d == DStay: the waiter state completes an all-stay deadlock —
//     no pending move, every robot's decision known and Stay under the
//     child table — while its stem contamination is not all-clear. A
//     Stay binding adds only stay self-loops, which the canonical
//     discovery replay ignores, so the child's stem contaminations
//     provably equal this branch's and w.cont is exactly the value the
//     child's deadlock check would use.
//
//   - d moving: a simultaneous fused activation of a same-observation
//     group has a direction resolution that collides (two movers onto
//     one node, or a mover onto a robot that stayed put). Enumerated
//     exactly as expand's group step does, against the same per-state
//     pending filter.
//
// Single fused moves never collide here (the legal mask already
// excludes moves onto occupied nodes, and every robot with this
// observation has the same neighborhood by view-determinism), so group
// activations are the only one-step collision source.
func (w *searcher) dominatedChild(oid int32, d Decision) bool {
	if d == DStay {
		full := uint64(1)<<uint(w.n) - 1
		for i := range w.waiters {
			e := &w.waiters[i]
			if e.oid != oid || w.cont[e.id] == full {
				continue
			}
			st := w.states[e.id]
			if st.anyPending() {
				continue
			}
			os := w.ts.obs.get(st.occupied)
			dead := true
			for j := range os.infos {
				oi := &os.infos[j]
				dd := DStay
				if oi.oid != oid {
					var known bool
					dd, known = w.decision(oi.oid)
					if !known {
						dead = false
						break
					}
				}
				if dd != DStay {
					dead = false
					break
				}
			}
			if dead {
				return true
			}
		}
		return false
	}
	for i := range w.waiters {
		e := &w.waiters[i]
		if e.oid != oid {
			continue
		}
		st := w.states[e.id]
		os := w.ts.obs.get(st.occupied)
		for _, g := range os.groups {
			if os.infos[g[0]].oid != oid {
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
			if w.enumGroupCollision(st, d, 0) {
				return true
			}
		}
	}
	return false
}

// enumGroupCollision enumerates the adversary's direction resolutions
// for w.groupBuf exactly as enumGroupCombos does, but only tests for a
// collision instead of materializing edges.
func (w *searcher) enumGroupCollision(st state, d Decision, idx int) bool {
	if idx == len(w.groupBuf) {
		_, _, collision := w.groupMoveMasks(st)
		return collision
	}
	dirs, nd := decisionDirs(d, w.groupBuf[idx].loDir)
	for j := 0; j < nd; j++ {
		w.dirs[idx] = dirs[j]
		if w.enumGroupCollision(st, d, idx+1) {
			return true
		}
	}
	return false
}
