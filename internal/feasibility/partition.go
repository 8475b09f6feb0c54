package feasibility

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sort"
)

// This file implements the distributed-drain primitives on top of the
// checkpoint layer: Partition cuts a suspended checkpoint's open
// frontier into independent subtree shards, each a complete checkpoint
// a separate process resumes with Solver.Resume; Merge recombines the
// shard outcomes — idempotently per shard id, since the drain-pool
// coordinator (internal/drainpool) runs shards at-least-once — into
// either a final verdict or the next checkpoint of the drain.
//
// Soundness of the cut rests on two properties of the checkpoint
// encoding. First, a checkpoint's node list is exactly the ancestor
// closure of its frontier with parents before children, so any subset
// of frontier entries plus its ancestor closure is again a well-formed
// checkpoint. Second, openKids counts are copied VERBATIM into each
// shard: a shared ancestor keeps counting children that were assigned
// to other shards, so a shard's refutation closure (prune.go) stalls
// at the shard boundary instead of closing — and crediting — a node
// whose foreign children are still open. The price is that interior
// refutations spanning shards earn no credit during the sharded tier
// (a branching-order loss only); Merge restores the true open counts
// structurally when it recombines frontiers.

// RootCheckpoint captures the solver's initial state — the empty-table
// root as the sole open branch of the first tier — without running any
// search. Resume(RootCheckpoint(s)) is equivalent to SolveContext, so
// a coordinator can treat fresh drains and resumed drains uniformly.
func RootCheckpoint(s *Solver) (*Checkpoint, error) {
	inst := s.InstanceOf()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return s.captureCheckpoint(inst, 0, Result{Tier: inst.PendingTiers[0]}, nil, []*tableNode{{}}, nil), nil
}

// NewSolver rebuilds a solver matching the checkpoint's identity: ring
// parameters, tier ladder and search-mode flags, with package defaults
// for everything outside it (budget, workers). A worker process needs
// only the checkpoint bytes to run its shard.
func (ck *Checkpoint) NewSolver() (*Solver, error) {
	if ck == nil {
		return nil, errors.New("feasibility: nil checkpoint")
	}
	if ck.version != SolverVersion {
		return nil, fmt.Errorf("feasibility: checkpoint from solver version %q, this solver is %q", ck.version, SolverVersion)
	}
	s := ck.inst.Solver()
	s.NoQuotient, s.NoIncremental, s.NoPrune = ck.modes.noQuotient, ck.modes.noIncremental, ck.modes.noPrune
	return s, nil
}

// Partition splits the checkpoint into at most k shard checkpoints,
// cutting the frontier into contiguous chunks (preserving the LIFO
// queue order within each shard) and carrying each chunk's ancestor
// closure. Shard counters are zeroed — a shard reports deltas, and
// Merge adds them onto this checkpoint's cumulative counters — while
// the header, tier position, prior survivor and credits are replicated
// so every shard resumes under the full learned state.
// Fewer than k shards are returned when the frontier is smaller than k.
func (ck *Checkpoint) Partition(k int) ([]*Checkpoint, error) {
	if ck == nil {
		return nil, errors.New("feasibility: nil checkpoint")
	}
	if k < 1 {
		return nil, fmt.Errorf("feasibility: Partition needs k >= 1, got %d", k)
	}
	f := len(ck.frontier)
	if f == 0 {
		return nil, errors.New("feasibility: cannot partition an empty frontier")
	}
	m := k
	if m > f {
		m = f
	}
	shards := make([]*Checkpoint, m)
	for si := 0; si < m; si++ {
		lo, hi := si*f/m, (si+1)*f/m
		inShard := make([]bool, len(ck.nodes))
		for _, id := range ck.frontier[lo:hi] {
			for cur := id; cur >= 0 && !inShard[cur]; cur = ck.nodes[cur].parent {
				inShard[cur] = true
			}
		}
		sh := &Checkpoint{
			version:   ck.version,
			inst:      ck.inst,
			modes:     ck.modes,
			tierIndex: ck.tierIndex,
			counters:  Result{Tier: ck.counters.Tier},
			prior:     ck.prior,
			credits:   append([]ckptCredit(nil), ck.credits...),
		}
		// Filter the node list in place-order: parents precede children
		// in ck.nodes, and the closure contains every parent, so the
		// remapped ids stay parents-first.
		remap := make([]int32, len(ck.nodes))
		for i := range remap {
			remap[i] = -1
		}
		for i, nd := range ck.nodes {
			if !inShard[i] {
				continue
			}
			p := int32(-1)
			if nd.parent >= 0 {
				p = remap[nd.parent]
			}
			remap[i] = int32(len(sh.nodes))
			sh.nodes = append(sh.nodes, ckptNode{parent: p, obs: nd.obs, d: nd.d, openKids: nd.openKids})
		}
		for _, id := range ck.frontier[lo:hi] {
			sh.frontier = append(sh.frontier, remap[id])
		}
		shards[si] = sh
	}
	return shards, nil
}

// ShardResult is one shard's report back to the coordinator: exactly
// one of Refuted, Survivor, Suspended is set, plus the shard-local
// counter deltas and (for terminal outcomes) the pruning state the
// shard solver ended with.
type ShardResult struct {
	Shard int
	// Refuted: the shard's whole subtree was drained with no survivor.
	Refuted bool
	// Survivor: a table in the shard's subtree the adversary failed to
	// beat at the checkpoint's tier.
	Survivor Table
	// Suspended: the shard ran out of budget (or was stopped) and
	// checkpointed its remaining frontier.
	Suspended *Checkpoint
	// Counters holds this shard run's counter deltas (the shard started
	// from zeroed counters; Impossible/Tier/SurvivorTable are ignored by
	// Merge, which derives the verdict itself).
	Counters Result
	// Prune carries the shard solver's exported credits for terminal
	// outcomes (a suspended shard's travel inside Suspended
	// instead); nil under NoPrune.
	Prune *PruneExport
}

// PruneExport is a solver's exported pruning state — its refutation
// credits — detached from any checkpoint, so a shard with a terminal
// outcome (which has no checkpoint) can still ship what it learned
// back to the coordinator.
type PruneExport struct {
	credits []ckptCredit
}

// PruneExport snapshots the pruning state of the solver's most recent
// solve (nil before any solve or under NoPrune).
func (s *Solver) PruneExport() *PruneExport {
	if s.lastPrune == nil {
		return nil
	}
	return &PruneExport{credits: s.lastPrune.exportState()}
}

// shardKind tags the ShardResult encoding.
const (
	shardRefuted   = 1
	shardSurvivor  = 2
	shardSuspended = 3
)

func appendResultCounters(b []byte, c *Result) []byte {
	b = binary.AppendUvarint(b, uint64(c.Tier))
	b = binary.AppendUvarint(b, uint64(c.TablesExplored))
	b = binary.AppendVarint(b, c.StatesInterned)
	b = binary.AppendVarint(b, c.StatesReexpanded)
	b = binary.AppendVarint(b, c.BranchesReused)
	b = binary.AppendVarint(b, c.TablesMemoHit)
	b = binary.AppendVarint(b, c.BranchesDominated)
	b = binary.AppendVarint(b, c.ExpansionUnits)
	return b
}

func (d *ckptDecoder) resultCounters(c *Result) {
	c.Tier = int(d.uvarint())
	c.TablesExplored = int(d.uvarint())
	c.StatesInterned = d.varint()
	c.StatesReexpanded = d.varint()
	c.BranchesReused = d.varint()
	c.TablesMemoHit = d.varint()
	c.BranchesDominated = d.varint()
	c.ExpansionUnits = d.varint()
}

func appendPruneExport(b []byte, pe *PruneExport) []byte {
	if pe == nil {
		return append(b, 0)
	}
	return appendCredits(append(b, 1), pe.credits)
}

func (d *ckptDecoder) pruneExport() *PruneExport {
	if d.byte() == 0 || d.err != nil {
		return nil
	}
	return &PruneExport{credits: d.credits()}
}

// shardResultMagic versions the ShardResult wire encoding.
const shardResultMagic = "RRSR"

// MarshalBinary encodes the shard result for the worker's journal.
func (r *ShardResult) MarshalBinary() ([]byte, error) {
	set := 0
	if r.Refuted {
		set++
	}
	if r.Survivor != nil {
		set++
	}
	if r.Suspended != nil {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("feasibility: shard result must have exactly one outcome, has %d", set)
	}
	b := []byte(shardResultMagic)
	b = binary.AppendUvarint(b, uint64(r.Shard))
	switch {
	case r.Refuted:
		b = append(b, shardRefuted)
	case r.Survivor != nil:
		b = r.Survivor.AppendBinary(append(b, shardSurvivor))
	default:
		b = append(b, shardSuspended)
		enc, err := r.Suspended.MarshalBinary()
		if err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, uint64(len(enc)))
		b = append(b, enc...)
	}
	b = appendResultCounters(b, &r.Counters)
	b = appendPruneExport(b, r.Prune)
	return b, nil
}

// UnmarshalShardResult decodes a ShardResult from MarshalBinary form.
func UnmarshalShardResult(data []byte) (*ShardResult, error) {
	if len(data) < len(shardResultMagic) || string(data[:len(shardResultMagic)]) != shardResultMagic {
		return nil, errors.New("feasibility: not a shard result (bad magic)")
	}
	d := &ckptDecoder{b: data[len(shardResultMagic):]}
	r := &ShardResult{Shard: int(d.uvarint())}
	switch kind := d.byte(); kind {
	case shardRefuted:
		r.Refuted = true
	case shardSurvivor:
		r.Survivor = d.table()
	case shardSuspended:
		enc := d.bytes(int(d.uvarint()))
		if d.err == nil {
			ck, err := UnmarshalCheckpoint(enc)
			if err != nil {
				return nil, err
			}
			r.Suspended = ck
		}
	default:
		if d.err == nil {
			return nil, fmt.Errorf("feasibility: unknown shard result kind %d", kind)
		}
	}
	d.resultCounters(&r.Counters)
	r.Prune = d.pruneExport()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("feasibility: %d trailing bytes after shard result", len(d.b))
	}
	return r, nil
}

// resultMagic versions the final-verdict wire encoding (the drain
// pool's journaled verdict record).
const resultMagic = "RRVR"

// MarshalResult encodes a final Result (verdict, tier, counters,
// survivor) for journaling.
func MarshalResult(res Result) ([]byte, error) {
	b := []byte(resultMagic)
	var flag byte
	if res.Impossible {
		flag |= 1
	}
	if res.SurvivorTable != nil {
		flag |= 2
	}
	b = append(b, flag)
	b = appendResultCounters(b, &res)
	if res.SurvivorTable != nil {
		b = res.SurvivorTable.AppendBinary(b)
	}
	return b, nil
}

// UnmarshalResult decodes a MarshalResult encoding.
func UnmarshalResult(data []byte) (Result, error) {
	var res Result
	if len(data) < len(resultMagic) || string(data[:len(resultMagic)]) != resultMagic {
		return res, errors.New("feasibility: not a result (bad magic)")
	}
	d := &ckptDecoder{b: data[len(resultMagic):]}
	flag := d.byte()
	res.Impossible = flag&1 != 0
	d.resultCounters(&res)
	if flag&2 != 0 {
		res.SurvivorTable = d.table()
	}
	if d.err != nil {
		return res, d.err
	}
	if len(d.b) != 0 {
		return res, fmt.Errorf("feasibility: %d trailing bytes after result", len(d.b))
	}
	return res, nil
}

// addResultDelta folds a shard's counter deltas into dst. Verdict
// fields (Impossible, Tier, SurvivorTable) are deliberately excluded —
// Merge derives those from the shard outcomes, never from counters.
func addResultDelta(dst *Result, d Result) {
	dst.TablesExplored += d.TablesExplored
	dst.StatesInterned += d.StatesInterned
	dst.StatesReexpanded += d.StatesReexpanded
	dst.BranchesReused += d.BranchesReused
	dst.TablesMemoHit += d.TablesMemoHit
	dst.BranchesDominated += d.BranchesDominated
	dst.ExpansionUnits += d.ExpansionUnits
}

// sameShardHeader checks a suspended shard checkpoint still belongs to
// this base checkpoint: same identity, same tier position, same prior
// survivor. A mismatch means the coordinator mixed generations.
func (ck *Checkpoint) sameShardHeader(sh *Checkpoint) error {
	if sh.version != ck.version || !sh.inst.equal(ck.inst) || sh.modes != ck.modes {
		return errors.New("feasibility: suspended shard checkpoint does not match the partitioned checkpoint's identity")
	}
	if sh.tierIndex != ck.tierIndex {
		return fmt.Errorf("feasibility: suspended shard checkpoint is at tier index %d, base is at %d", sh.tierIndex, ck.tierIndex)
	}
	if (sh.prior != nil) != (ck.prior != nil) || !maps.Equal(sh.prior, ck.prior) {
		return errors.New("feasibility: suspended shard checkpoint has a different prior survivor")
	}
	return nil
}

// Merge recombines shard outcomes for a checkpoint partitioned into
// `shards` shards. It is idempotent per shard id — results is allowed
// to contain duplicates from at-least-once shard execution; the first
// report per id wins and the rest are ignored — but every shard id in
// [0, shards) must be covered, or the merge fails (no shard may be
// silently lost). The outcome is exactly one of:
//
//   - a final Result: some shard found a survivor and this was the
//     ladder's last tier (feasible), or every shard refuted its subtree
//     (the tier — and therefore the drain — is impossible);
//   - the next Checkpoint: a survivor at a non-final tier escalates the
//     ladder (fresh root frontier, survivor becomes the prior), or, with
//     no survivor and at least one suspended shard, the suspended
//     frontiers recombine into a same-tier checkpoint.
//
// Counters are this checkpoint's cumulative counters plus the deduped
// shard deltas. Credits merge additively per observation hash. Open-kid
// counts of the
// recombined frontier are recomputed structurally (the shard copies
// kept counting foreign children by design; see the file comment) —
// for a partition merged back unchanged this reproduces the original
// checkpoint byte-for-byte.
func (ck *Checkpoint) Merge(shards int, results []ShardResult) (*Result, *Checkpoint, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("feasibility: Merge needs shards >= 1, got %d", shards)
	}
	byShard := make([]*ShardResult, shards)
	for i := range results {
		r := &results[i]
		if r.Shard < 0 || r.Shard >= shards {
			return nil, nil, fmt.Errorf("feasibility: shard result id %d out of range [0, %d)", r.Shard, shards)
		}
		if byShard[r.Shard] == nil {
			byShard[r.Shard] = r
		}
	}
	var surv *ShardResult
	anySuspended := false
	for i, r := range byShard {
		if r == nil {
			return nil, nil, fmt.Errorf("feasibility: no result for shard %d of %d", i, shards)
		}
		set := 0
		if r.Refuted {
			set++
		}
		if r.Survivor != nil {
			set++
		}
		if r.Suspended != nil {
			set++
		}
		if set != 1 {
			return nil, nil, fmt.Errorf("feasibility: shard %d result must have exactly one outcome, has %d", i, set)
		}
		if r.Suspended != nil {
			if err := ck.sameShardHeader(r.Suspended); err != nil {
				return nil, nil, fmt.Errorf("shard %d: %w", i, err)
			}
			anySuspended = true
		}
		if r.Survivor != nil && surv == nil {
			surv = r // lowest shard id wins: deterministic across report orders
		}
	}
	counters := ck.counters
	for _, r := range byShard {
		addResultDelta(&counters, r.Counters)
	}
	limit := ck.inst.PendingTiers[ck.tierIndex]
	counters.Tier = limit

	if surv != nil {
		// One table the adversary cannot beat settles the tier no matter
		// what the other shards did (exactly the single-process rule: a
		// survivor cancels the remaining branches).
		if ck.tierIndex == len(ck.inst.PendingTiers)-1 {
			final := counters
			final.Impossible = false
			final.SurvivorTable = surv.Survivor
			return &final, nil, nil
		}
		next, err := ck.advanceTier(surv.Survivor, counters)
		if err != nil {
			return nil, nil, err
		}
		return nil, next, nil
	}
	if !anySuspended {
		// Every shard drained its subtree with no survivor: the tier is
		// impossible, and an impossibility verdict at any tier is final
		// (each tier under-approximates the true asynchronous adversary).
		final := counters
		final.Impossible = true
		final.SurvivorTable = nil
		return &final, nil, nil
	}

	// Recombine the suspended frontiers into a same-tier checkpoint.
	merged := &Checkpoint{
		version:   ck.version,
		inst:      ck.inst,
		modes:     ck.modes,
		tierIndex: ck.tierIndex,
		counters:  counters,
		prior:     ck.prior,
	}
	merged.counters.SurvivorTable = nil
	type nodeKey struct {
		parent int32
		obs    ObsKey
		d      Decision
	}
	index := make(map[nodeKey]int32)
	frontierSeen := make(map[int32]bool)
	for si, r := range byShard {
		sh := r.Suspended
		if sh == nil {
			continue
		}
		remap := make([]int32, len(sh.nodes))
		for i, nd := range sh.nodes {
			p := int32(-1)
			if nd.parent >= 0 {
				p = remap[nd.parent]
			}
			key := nodeKey{parent: p, obs: nd.obs, d: nd.d}
			id, ok := index[key]
			if !ok {
				id = int32(len(merged.nodes))
				merged.nodes = append(merged.nodes, ckptNode{parent: p, obs: nd.obs, d: nd.d, openKids: nd.openKids})
				index[key] = id
			}
			remap[i] = id
		}
		for _, fid := range sh.frontier {
			mid := remap[fid]
			if frontierSeen[mid] {
				return nil, nil, fmt.Errorf("feasibility: shard %d re-opens a frontier branch another shard already holds", si)
			}
			frontierSeen[mid] = true
			merged.frontier = append(merged.frontier, mid)
		}
	}
	if !merged.modes.noPrune {
		// Restore true open counts: in the merged closure every still-open
		// child of a node is present (it has an open descendant on some
		// shard's frontier), and every refuted child is absent, so the
		// structural child count is the live openKids value. The verbatim
		// shard copies intentionally over-count across the boundary.
		for i := range merged.nodes {
			merged.nodes[i].openKids = 0
		}
		for _, nd := range merged.nodes {
			if nd.parent >= 0 {
				merged.nodes[nd.parent].openKids++
			}
		}
	} else {
		// Without pruning openKids is written at expansion but never
		// consumed; the first-occurrence copies (base values) are kept
		// as-is so a partition merged back unchanged round-trips exactly.
	}
	merged.credits = ck.mergeCredits(byShard)
	return nil, merged, nil
}

// mergeCredits folds the shards' credit stores additively against the
// base: merged[h] = base[h] + Σ_s (shard_s[h] − base[h]). A shard that
// never touched a hash contributes zero; concurrent learning on
// distinct subtrees accumulates. Zero totals are dropped (matching
// exportState) and the result is hash-sorted (matching the encoding's
// determinism contract).
func (ck *Checkpoint) mergeCredits(byShard []*ShardResult) []ckptCredit {
	base := make(map[uint64]int64, len(ck.credits))
	for _, c := range ck.credits {
		base[c.hash] = c.credit
	}
	total := make(map[uint64]int64, len(ck.credits))
	for h, v := range base {
		total[h] = v
	}
	for _, r := range byShard {
		var credits []ckptCredit
		switch {
		case r.Suspended != nil:
			credits = r.Suspended.credits
		case r.Prune != nil:
			credits = r.Prune.credits
		default:
			continue
		}
		seen := make(map[uint64]bool, len(credits))
		for _, c := range credits {
			total[c.hash] += c.credit - base[c.hash]
			seen[c.hash] = true
		}
		// A base hash absent from the shard's export went to zero there.
		for h, v := range base {
			if !seen[h] {
				total[h] -= v
			}
		}
	}
	merged := make([]ckptCredit, 0, len(total))
	for h, v := range total {
		if v != 0 {
			merged = append(merged, ckptCredit{hash: h, credit: v})
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].hash < merged[j].hash })
	return merged
}

// advanceTier builds the checkpoint of the ladder's next tier after
// this checkpoint's tier produced a survivor: a fresh root frontier at
// tierIndex+1, the survivor as the prior, and cumulative counters
// carried forward. Credits start empty — they are per-tier statistics,
// exactly as an uninterrupted solve resets them at escalation.
func (ck *Checkpoint) advanceTier(survivor Table, counters Result) (*Checkpoint, error) {
	if survivor == nil {
		return nil, errors.New("feasibility: advancing a tier requires a survivor")
	}
	if ck.tierIndex+1 >= len(ck.inst.PendingTiers) {
		return nil, errors.New("feasibility: no tier to advance to")
	}
	counters.SurvivorTable = nil
	return &Checkpoint{
		version:   ck.version,
		inst:      ck.inst,
		modes:     ck.modes,
		tierIndex: ck.tierIndex + 1,
		counters:  counters,
		prior:     maps.Clone(survivor),
		nodes:     []ckptNode{{parent: -1}},
		frontier:  []int32{0},
	}, nil
}
