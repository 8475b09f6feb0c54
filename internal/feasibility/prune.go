package feasibility

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the tree-level pruning layer of the table
// search. PR 4 made each branch nearly free (graph-level reuse), so the
// deep drains are bound by the *number of tables explored*; the levers
// here shrink the tree itself. Three cooperating mechanisms, all shared
// across the worker pool and all disabled together by Solver.NoPrune
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
//   - Subtable refutation memo (pruneState.nogoodHit): interior
//     branches whose children have all closed record their table as a
//     *nogood*. A candidate child whose table contains a recorded
//     nogood as a subset is refuted without analysis: every completion
//     of the superset is a completion of the refuted subtable, and
//     adversary wins are monotone both in table extension and in
//     pending allowance, so nogoods recorded at a lower tier remain
//     valid at higher ones (each record carries the pending limit it
//     was refuted under). Only non-final tiers record — within one tier
//     the search never revisits a table, so a record can only ever be
//     consumed by a later rung of the ladder. Measured honestly: hits
//     are rare (the (5,9) ladder sees a handful), because the
//     lazy-binding structure leaves almost no transpositions to find —
//     the memo is kept cheap enough (bloom + sorted-hash merge-walk
//     subset tests, bounded chains, zero-store fast path) that its
//     upside costs nothing measurable.
//
// A measurement worth recording for future levers: the lazy-binding
// game has *no* dead table entries. Reachability only grows as entries
// are added, so along any branch every defined entry is queried in the
// branch's own game graph (verified exhaustively on (5,8): zero
// droppable entries over all 552 unpruned tables). A transposition
// memo keyed by the projection of the table onto reachable observation
// classes therefore degenerates to exact-table keying — which is why
// the memo here is a subset nogood store rather than a projection
// cache.

// pruneCreditWeight scales the per-observation refutation credit
// against the waiting-state count in selectNeeded. Swept over
// {0, 1, 4, 16} on the paper cases before per-tier credit scoping: 4 is
// the plateau ((4,9) 218 → 127 tables vs credit-free ordering; the
// later per-tier reset moved (5,9) far more than any weight choice).
const pruneCreditWeight = 4

const (
	pruneShards = 64
	// nogoodShardCap bounds each shard of the nogood store; a full
	// shard is wholesale-cleared (epoch-style, like interntable.go's
	// reset) rather than evicted entry-by-entry. The memo is an
	// accelerator: dropping entries only costs future hits.
	nogoodShardCap = 1 << 10
	// nogoodChainCap bounds the records sharing one anchor a lookup
	// will walk. Deep drains refute thousands of tables whose maximal
	// entry coincides; without the cap those chains turn every
	// pre-enqueue lookup into a linear scan of the store (measured 10×
	// the whole solve on (5,9)). Later records simply fall off the
	// chain — the memo misses them, soundly.
	nogoodChainCap = 16
	// nogoodMaxEntries skips recording deep tables: a long nogood is
	// contained in almost no other table (supersets of a 12-entry
	// refutation essentially never re-assemble), so storing it buys
	// nothing — and on branch-heavy drains the serialization of deep
	// interior closures was the dominant closure cost.
	nogoodMaxEntries = 12
)

// pruneEntry is one (observation, decision) binding of a nogood.
type pruneEntry struct {
	obs ObsKey
	d   Decision
}

// nogoodRec is one refuted subtable: its bindings, the pending limit it
// was refuted under (valid at any limit ≥ that one — a stronger
// adversary keeps every win), and the chain link to the previous record
// sharing its anchor hash.
type nogoodRec struct {
	limit int32
	next  int32 // chain of same-anchor records, -1 at the end
	// sig is the 64-bit membership bloom of the entries (one bit per
	// entry hash): a record can only be a subset of a candidate table
	// whose signature covers sig, so most non-hits die on one AND.
	sig uint64
	// hashes holds the entries' hashes in ascending order: the subset
	// test is a merge-walk of two sorted hash arrays (word compares
	// only). Near-miss candidates — cousin tables differing in one
	// decision — used to slip past the bloom and burn exact map lookups
	// here; the differing entry's hash is absent from the candidate, so
	// the merge-walk rejects them for free. entries back the exact
	// verification that guards against hash collisions (a false prune
	// must be impossible, not just unlikely).
	hashes  []uint64
	entries []pruneEntry
}

// pruneState is the pruning state shared by all workers and all tiers
// of one Solve: the per-observation refutation credits read by
// selectNeeded, and the sharded nogood store. Both sides shard by
// observation hash to keep contention negligible under the worker
// pool; racing lookups that miss a just-recorded entry are benign (a
// missed prune is just an analyzed branch).
//
// The nogood index is keyed by the 64-bit anchor hash, not the entry
// struct: ObsKey holds CanonKeys with a string fallback, and hashing
// those through the generic map path dominated the whole solve on deep
// ladders. A hash collision only routes a lookup to records whose
// subset test then fails against the actual table — never a false
// prune.
type pruneState struct {
	credit [pruneShards]struct {
		mu sync.RWMutex
		m  map[uint64]int64
	}
	// recorded counts stored nogoods (approximately — shard clears do
	// not subtract): the zero fast-path lets solves that never record a
	// nogood skip all lookup work.
	recorded atomic.Int64
	nogood   [pruneShards]struct {
		mu   sync.RWMutex
		head map[uint64]int32 // anchor hash → latest record index
		recs []nogoodRec
	}
}

// newPruneState allocates only the shard skeleton; the shard maps are
// created on first write (reads of a nil map are well-defined misses),
// so small solves never pay for 2×64 map allocations.
func newPruneState() *pruneState {
	return &pruneState{}
}

// obsHash mixes an observation key into 64 bits (word-level, no string
// hashing for packable views).
func obsHash(o ObsKey) uint64 {
	h := o.Lo.Hash()*0x9e3779b97f4a7c15 + o.Hi.Hash()
	return h ^ h>>32
}

func entryHash(e pruneEntry) uint64 {
	return obsHash(e.obs)*0x9e3779b97f4a7c15 + uint64(e.d) + 1
}

// hashSigBit maps an entry hash to its membership-bloom bit; every
// bloom producer and consumer must go through it.
func hashSigBit(h uint64) uint64 {
	return 1 << ((h >> 58) & 63)
}

// sigInsertHash folds one entry hash into the membership bloom and
// insertion-sorts it into the ascending hash array — the single
// definition of the (sig, sorted hashes) representation both sides of
// the subset test must agree on.
func sigInsertHash(sig uint64, hashes []uint64, h uint64) (uint64, []uint64) {
	sig |= hashSigBit(h)
	j := len(hashes)
	hashes = append(hashes, h)
	for j > 0 && h < hashes[j-1] {
		hashes[j] = hashes[j-1]
		j--
	}
	hashes[j] = h
	return sig, hashes
}

// tableSigAndAnchors folds a table's entries into the membership bloom
// the nogood quick-reject compares against and collects the per-entry
// hashes in ascending order (into the caller's scratch) — the anchors
// probed and the merge-walk side of the subset test, one map iteration
// serving every child of the branch.
func tableSigAndAnchors(t Table, scratch []uint64) (uint64, []uint64) {
	var sig uint64
	scratch = scratch[:0]
	for o, d := range t {
		sig, scratch = sigInsertHash(sig, scratch, entryHash(pruneEntry{obs: o, d: d}))
	}
	return sig, scratch
}

// hashesCover reports whether every hash in need occurs in the sorted
// array have or equals extra (the child's new binding). Duplicate
// needs must be covered by duplicate haves — a conservative reject on
// the rare in-table hash collision, never a false accept.
func hashesCover(need, have []uint64, extra uint64) bool {
	i := 0
	for _, h := range need {
		if h == extra {
			continue
		}
		for i < len(have) && have[i] < h {
			i++
		}
		if i >= len(have) || have[i] != h {
			return false
		}
		i++
	}
	return true
}

// creditOf reads an observation's accumulated refutation credit.
// Credits are keyed by observation hash: a chance collision merges two
// observations' credits, which at worst nudges the (heuristic, freely
// choosable) branching order — determinism is unaffected, the hash is a
// pure function.
func (pr *pruneState) creditOf(o ObsKey) int64 {
	h := obsHash(o)
	sh := &pr.credit[h%pruneShards]
	sh.mu.RLock()
	c := sh.m[h]
	sh.mu.RUnlock()
	return c
}

// resetCredits clears every credit shard (tier boundary, when credits
// are scoped per tier).
func (pr *pruneState) resetCredits() {
	for i := range pr.credit {
		sh := &pr.credit[i]
		sh.mu.Lock()
		clear(sh.m)
		sh.mu.Unlock()
	}
}

// addCredit records one refuted branch bound at o.
func (pr *pruneState) addCredit(o ObsKey) {
	h := obsHash(o)
	sh := &pr.credit[h%pruneShards]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64]int64)
	}
	sh.m[h]++
	sh.mu.Unlock()
}

// recordNogood stores a refuted subtable. entries must be sorted by
// observation key; the slice is retained.
func (pr *pruneState) recordNogood(limit int, entries []pruneEntry) {
	if len(entries) == 0 || len(entries) > nogoodMaxEntries {
		return
	}
	// Anchor: the maximal entry. Every superset of the nogood contains
	// it, so a lookup only has to consult the chains of the candidate
	// table's own entries.
	h := entryHash(entries[len(entries)-1])
	sh := &pr.nogood[h%pruneShards]
	sh.mu.Lock()
	if sh.head == nil {
		sh.head = make(map[uint64]int32)
	}
	if len(sh.recs) >= nogoodShardCap {
		clear(sh.head)
		sh.recs = sh.recs[:0]
	}
	head, ok := sh.head[h]
	if !ok {
		head = -1
	} else {
		// Respect the chain cap: a full chain keeps its existing (older)
		// records and this new one is simply not stored — the memo is an
		// accelerator, so dropping a record only costs a potential prune.
		depth := 1
		for i := head; i >= 0 && depth < nogoodChainCap; i = sh.recs[i].next {
			depth++
		}
		if depth >= nogoodChainCap {
			sh.mu.Unlock()
			return
		}
	}
	var sig uint64
	hashes := make([]uint64, 0, len(entries))
	for _, e := range entries {
		sig, hashes = sigInsertHash(sig, hashes, entryHash(e))
	}
	sh.head[h] = int32(len(sh.recs))
	sh.recs = append(sh.recs, nogoodRec{limit: int32(limit), next: head, sig: sig, hashes: hashes, entries: entries})
	sh.mu.Unlock()
	pr.recorded.Add(1)
}

// nogoodHit reports whether the table t extended by the binding
// (xo, xd) contains a nogood refuted at a pending limit ≤ limit. xo
// must be undefined in t (it is the branch's needed observation); tsig
// and hashes are the table's membership bloom and per-entry anchor
// hashes, both computed once per branch by the caller (the candidate's
// own entries are the only possible anchors of a contained nogood, and
// re-deriving them per child made the lookup the hottest path of small
// solves).
func (pr *pruneState) nogoodHit(limit int, t Table, tsig uint64, hashes []uint64, xo ObsKey, xd Decision) bool {
	x := pruneEntry{obs: xo, d: xd}
	xh := entryHash(x)
	csig := tsig | hashSigBit(xh)
	size := len(t) + 1
	if pr.anchoredHit(limit, t, hashes, xo, xd, xh, xh, csig, size) {
		return true
	}
	for _, h := range hashes {
		if pr.anchoredHit(limit, t, hashes, xo, xd, h, xh, csig, size) {
			return true
		}
	}
	return false
}

func (pr *pruneState) anchoredHit(limit int, t Table, tsorted []uint64, xo ObsKey, xd Decision, h, xh, csig uint64, size int) bool {
	sh := &pr.nogood[h%pruneShards]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	head, ok := sh.head[h]
	if !ok {
		return false
	}
	for i := head; i >= 0; i = sh.recs[i].next {
		r := &sh.recs[i]
		if int(r.limit) > limit || len(r.entries) > size || r.sig&^csig != 0 {
			continue
		}
		if !hashesCover(r.hashes, tsorted, xh) {
			continue
		}
		// Hash-covered: verify exactly (collisions must reject).
		ok := true
		for _, e := range r.entries {
			if e.obs == xo {
				if e.d != xd {
					ok = false
					break
				}
				continue
			}
			if d, defined := t[e.obs]; !defined || d != e.d {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// closeRefuted records that the branch at nd is fully refuted and
// propagates the closure up the table tree: credits the branch's
// binding observation, stores interior subtree roots as nogoods, and
// when this was the parent's last open child, closes the parent in
// turn. Leaf tables themselves are credited but not recorded: a leaf is
// the deepest table of its chain, and a later branch assembling a
// superset of it essentially never occurs — recording every leaf made
// serialization the dominant closure cost for zero measured hits. A
// no-op without pruning; skipped once the tier is cancelled (a stopped
// tier abandons branches without refuting them, so recording then would
// be unsound for the survivor path and pointless otherwise).
func (w *searcher) closeRefuted(nd *tableNode, leaf bool) {
	pr := w.ts.prune
	if pr == nil {
		return
	}
	for nd != nil && nd.parent != nil {
		if w.ts.stop.Load() {
			return
		}
		pr.addCredit(w.ts.obs.key(nd.oid))
		if !leaf && w.ts.recordNogoods {
			pr.recordNogood(w.ts.pendingLimit, nogoodEntries(nd, w.ts.obs))
		}
		p := nd.parent
		if p.openKids.Add(-1) != 0 {
			return
		}
		nd = p
		leaf = false
	}
}

// nogoodEntries serializes a branch's table chain as a fresh sorted
// entry slice (retained by the nogood store), or nil when the table is
// too deep to be worth recording.
func nogoodEntries(nd *tableNode, oc *obsCache) []pruneEntry {
	n := 0
	for c := nd; c != nil && c.parent != nil; c = c.parent {
		n++
	}
	if n > nogoodMaxEntries {
		return nil
	}
	entries := make([]pruneEntry, 0, n)
	for c := nd; c != nil && c.parent != nil; c = c.parent {
		e := pruneEntry{obs: oc.key(c.oid), d: c.d}
		// Insertion sort by observation key; chains are short and
		// near-sorted order does not matter at this size.
		i := len(entries)
		entries = append(entries, e)
		for i > 0 && e.obs.Less(entries[i-1].obs) {
			entries[i] = entries[i-1]
			i--
		}
		entries[i] = e
	}
	return entries
}

// exportState snapshots the refutation credits and the nogood store
// for checkpoint serialization (checkpoint.go). Credits are sorted by
// hash so the encoding is deterministic; nogood records are emitted in
// shard order and, within a shard, in append order — re-recording them
// in that order (importState) rebuilds byte-identical chain structure,
// which the resume determinism contract needs. The solver only calls
// this while the tier is quiesced (workers parked or exited), but the
// shard locks are taken anyway so the method is safe under -race
// whenever it is reachable.
func (pr *pruneState) exportState() (credits []ckptCredit, nogoods []ckptNogood) {
	for i := range pr.credit {
		sh := &pr.credit[i]
		sh.mu.RLock()
		for h, c := range sh.m {
			if c != 0 {
				credits = append(credits, ckptCredit{hash: h, credit: c})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(credits, func(i, j int) bool { return credits[i].hash < credits[j].hash })
	for i := range pr.nogood {
		sh := &pr.nogood[i]
		sh.mu.RLock()
		for r := range sh.recs {
			rec := &sh.recs[r]
			nogoods = append(nogoods, ckptNogood{
				limit:   rec.limit,
				entries: append([]pruneEntry(nil), rec.entries...),
			})
		}
		sh.mu.RUnlock()
	}
	return credits, nogoods
}

// importState restores an exported pruning state into a fresh
// pruneState. Nogoods are replayed through recordNogood, so chain
// heads, links and the recorded counter come out exactly as they were
// at export time.
func (pr *pruneState) importState(credits []ckptCredit, nogoods []ckptNogood) {
	for _, c := range credits {
		sh := &pr.credit[c.hash%pruneShards]
		sh.mu.Lock()
		if sh.m == nil {
			sh.m = make(map[uint64]int64)
		}
		sh.m[c.hash] = c.credit
		sh.mu.Unlock()
	}
	for _, ng := range nogoods {
		pr.recordNogood(int(ng.limit), ng.entries)
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
					dd, known = w.table[w.ts.obs.key(oi.oid)]
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
