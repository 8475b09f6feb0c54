package feasibility

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sort"

	"ringrobots/internal/config"
)

// This file implements the checkpoint layer of the table search: a
// suspended drain's complete restart state — the open branch frontier
// (copy-on-write chains flattened into an indexed node list), the
// pruning layer's refutation credits, the prior tiers' surviving
// table, and the cumulative counters — plus a versioned binary
// encoding for journaling it (internal/journal). Capture happens
// either at a quiesce barrier (Solver.CheckpointEvery/OnCheckpoint,
// workQueue.pop) or at suspension (budget exhaustion, context cancel);
// Solver.Resume validates a checkpoint and rebuilds the work queue from
// it.

// ckptNode is one flattened tableNode: its parent by index into the
// checkpoint's node list (-1 for the root, which must precede its
// children), its (observation, decision) binding, and its live openKids
// count so the pruning layer's refutation closure resumes mid-flight.
type ckptNode struct {
	parent   int32
	obs      ObsKey
	d        Decision
	openKids int32
}

// ckptCredit is one observation's learned refutation credit, keyed by
// its obsHash (the credit store never needs the observation back).
type ckptCredit struct {
	hash   uint64
	credit int64
}

// Checkpoint is the restart state of a suspended drain. Values are
// produced by SolveContext/Resume (on suspension), by the OnCheckpoint
// callback (periodically), or by UnmarshalCheckpoint; they are opaque
// outside this package except through Stats.
type Checkpoint struct {
	version string
	inst    Instance // the game; its PendingTiers is shared, never mutated
	modes   searchModes

	tierIndex int // index into inst.PendingTiers of the suspended tier

	// counters is the cumulative Result so far (SurvivorTable stripped;
	// the prior survivor travels below).
	counters Result

	// prior is the prior tiers' surviving table, nil before any tier
	// produced one. It is never mutated, so checkpoints derived from
	// this one share it.
	prior Table

	// nodes lists every tableNode on some frontier chain, parents
	// strictly before children; frontier indexes the open branches in
	// queue order (bottom of the LIFO stack first).
	nodes    []ckptNode
	frontier []int32

	credits []ckptCredit
}

// searchModes are the solver's differential-oracle switches. They are
// outside the Instance (the verdict does not depend on them) but a
// checkpoint only resumes under the modes that wrote it.
type searchModes struct {
	noQuotient, noIncremental, noPrune bool
}

func (s *Solver) modes() searchModes {
	return searchModes{noQuotient: s.NoQuotient, noIncremental: s.NoIncremental, noPrune: s.NoPrune}
}

// priorSurvivor returns a copy of the prior tiers' surviving table
// (nil if the drain was suspended before any tier produced one).
func (ck *Checkpoint) priorSurvivor() Table {
	return maps.Clone(ck.prior)
}

// captureCheckpoint flattens the live drain state. frontier must be the
// complete open frontier in queue order (bottom first); the nodes are
// read, never retained, so calling under the quiesce barrier with the
// live queue slice is safe.
func (s *Solver) captureCheckpoint(inst Instance, ti int, counters Result, survivor Table, frontier []*tableNode, prune *pruneState) *Checkpoint {
	counters.SurvivorTable = nil
	ck := &Checkpoint{version: SolverVersion, inst: inst, modes: s.modes(), tierIndex: ti, counters: counters}
	ck.prior = maps.Clone(survivor)
	index := make(map[*tableNode]int32)
	var addNode func(nd *tableNode) int32
	addNode = func(nd *tableNode) int32 {
		if nd == nil {
			return -1
		}
		if id, ok := index[nd]; ok {
			return id
		}
		p := addNode(nd.parent) // parents first: children refer backward
		id := int32(len(ck.nodes))
		cn := ckptNode{parent: p, d: nd.d, openKids: nd.openKids.Load()}
		if nd.parent != nil {
			cn.obs = s.obsCache.key(nd.oid)
		}
		ck.nodes = append(ck.nodes, cn)
		index[nd] = id
		return id
	}
	for _, nd := range frontier {
		ck.frontier = append(ck.frontier, addNode(nd))
	}
	if prune != nil {
		ck.credits = prune.exportState()
	}
	return ck
}

// rebuildFrontier reconstructs the open branches as live tableNode
// chains (shared ancestors shared again, openKids restored, observations
// numbered by c), in the stored queue order. Snapshots are not
// checkpointed: resumed branches run a full analysis, whose per-branch
// outputs the incremental mode's differential contract pins as
// identical.
func (ck *Checkpoint) rebuildFrontier(c *obsCache) ([]*tableNode, error) {
	if len(ck.frontier) == 0 {
		return nil, errors.New("feasibility: checkpoint has an empty frontier")
	}
	nodes := make([]*tableNode, len(ck.nodes))
	for i, cn := range ck.nodes {
		nd := &tableNode{d: cn.d}
		if cn.parent >= 0 {
			if int(cn.parent) >= i {
				return nil, fmt.Errorf("feasibility: checkpoint node %d references non-prior parent %d", i, cn.parent)
			}
			nd.parent = nodes[cn.parent]
			nd.oid = c.idOf(cn.obs)
		}
		nd.openKids.Store(cn.openKids)
		nodes[i] = nd
	}
	out := make([]*tableNode, len(ck.frontier))
	for i, id := range ck.frontier {
		if id < 0 || int(id) >= len(nodes) {
			return nil, fmt.Errorf("feasibility: checkpoint frontier references node %d of %d", id, len(nodes))
		}
		out[i] = nodes[id]
	}
	return out, nil
}

// validateFor checks that a checkpoint can resume on this solver: same
// solver version (resume is only deterministic against the exact search
// that wrote it), same ring and search parameters, same mode flags,
// same tier ladder, and a non-empty frontier (an empty one would drain
// instantly into a bogus impossibility verdict).
func (ck *Checkpoint) validateFor(s *Solver) error {
	if ck == nil {
		return errors.New("feasibility: nil checkpoint")
	}
	if ck.version != SolverVersion {
		return fmt.Errorf("feasibility: checkpoint from solver version %q, this solver is %q", ck.version, SolverVersion)
	}
	if inst := s.InstanceOf(); !ck.inst.equal(inst) {
		return fmt.Errorf("feasibility: checkpoint is for instance %v, solver has %v", ck.inst, inst)
	}
	if m := s.modes(); ck.modes != m {
		return fmt.Errorf("feasibility: checkpoint search modes %+v do not match solver %+v", ck.modes, m)
	}
	if ck.tierIndex < 0 || ck.tierIndex >= len(ck.inst.PendingTiers) {
		return fmt.Errorf("feasibility: checkpoint tier index %d out of range for ladder %v", ck.tierIndex, ck.inst.PendingTiers)
	}
	if len(ck.frontier) == 0 {
		return errors.New("feasibility: checkpoint has an empty frontier")
	}
	return nil
}

// CheckpointStats is the operator-facing summary of a checkpoint
// (cmd/drain prints it on every save and resume).
type CheckpointStats struct {
	Version          string
	N, K             int
	Tier             int // pending limit of the suspended tier
	TierIndex        int
	TierCount        int // length of the pending-tier ladder
	FrontierNodes    int
	FrontierDepthMin int // table entries bound on the shallowest open branch
	FrontierDepthMax int
	TablesExplored   int
	ExpansionUnits   int64
	Credits          int
	HasPriorSurvivor bool
}

// Stats summarizes the checkpoint without rebuilding it.
func (ck *Checkpoint) Stats() CheckpointStats {
	st := CheckpointStats{
		Version:          ck.version,
		N:                ck.inst.N,
		K:                ck.inst.K,
		TierIndex:        ck.tierIndex,
		TierCount:        len(ck.inst.PendingTiers),
		FrontierNodes:    len(ck.frontier),
		TablesExplored:   ck.counters.TablesExplored,
		ExpansionUnits:   ck.counters.ExpansionUnits,
		Credits:          len(ck.credits),
		HasPriorSurvivor: ck.prior != nil,
	}
	if ck.tierIndex >= 0 && ck.tierIndex < len(ck.inst.PendingTiers) {
		st.Tier = ck.inst.PendingTiers[ck.tierIndex]
	}
	depth := make([]int, len(ck.nodes))
	for i, cn := range ck.nodes {
		if cn.parent >= 0 {
			depth[i] = depth[cn.parent] + 1
		}
	}
	for i, id := range ck.frontier {
		d := 0
		if int(id) < len(depth) {
			d = depth[id]
		}
		if i == 0 || d < st.FrontierDepthMin {
			st.FrontierDepthMin = d
		}
		if d > st.FrontierDepthMax {
			st.FrontierDepthMax = d
		}
	}
	return st
}

// --- binary encoding ---------------------------------------------------------

// ckptMagic and ckptFormat version the wire encoding separately from
// SolverVersion (which versions search semantics).
const ckptMagic = "RRCP"
const ckptFormat = 1

func appendObsKey(b []byte, o ObsKey) []byte {
	b = o.Lo.AppendBinary(b)
	return o.Hi.AppendBinary(b)
}

func decodeObsKey(b []byte) (ObsKey, int, error) {
	lo, n1, err := config.DecodeCanonKey(b)
	if err != nil {
		return ObsKey{}, 0, err
	}
	hi, n2, err := config.DecodeCanonKey(b[n1:])
	if err != nil {
		return ObsKey{}, 0, err
	}
	return ObsKey{Lo: lo, Hi: hi}, n1 + n2, nil
}

// AppendBinary appends the table's wire form to b: the entry count,
// then each entry's observation (Lo, Hi) and decision (a uvarint) in
// ObsKey.Less order, so equal tables encode to equal bytes. It is the
// one encoding of a table: a checkpoint's prior survivor, a shard's
// survivor, a journaled Result's survivor and a stored verdict's
// (internal/verdictstore). DecodeTable reads it back.
func (t Table) AppendBinary(b []byte) []byte {
	obs := make([]ObsKey, 0, len(t))
	for o := range t {
		obs = append(obs, o)
	}
	sort.Slice(obs, func(i, j int) bool { return obs[i].Less(obs[j]) })
	b = binary.AppendUvarint(b, uint64(len(obs)))
	for _, o := range obs {
		b = appendObsKey(b, o)
		b = binary.AppendUvarint(b, uint64(t[o]))
	}
	return b
}

// DecodeTable decodes the table that Table.AppendBinary wrote at the
// front of b and returns it with the number of bytes it took.
func DecodeTable(b []byte) (Table, int, error) {
	d := &ckptDecoder{b: b}
	t := d.table()
	if d.err != nil {
		return nil, 0, d.err
	}
	return t, len(b) - len(d.b), nil
}

var errTruncated = errors.New("feasibility: truncated encoding")

// ckptDecoder is a cursor with sticky error handling over an encoded
// checkpoint, shard result, result or table.
type ckptDecoder struct {
	b   []byte
	err error
}

func (d *ckptDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *ckptDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *ckptDecoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.err = errTruncated
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *ckptDecoder) byte() byte {
	b := d.bytes(1)
	if d.err != nil {
		return 0
	}
	return b[0]
}

// count reads a length prefix and sanity-caps it against the remaining
// input (each element costs at least min bytes), so corrupt lengths
// fail cleanly instead of attempting giant allocations.
func (d *ckptDecoder) count(min int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(len(d.b)/min) {
		d.err = errTruncated
		return 0
	}
	return int(v)
}

func (d *ckptDecoder) obsKey() ObsKey {
	if d.err != nil {
		return ObsKey{}
	}
	o, n, err := decodeObsKey(d.b)
	if err != nil {
		d.err = err
		return ObsKey{}
	}
	d.b = d.b[n:]
	return o
}

func (d *ckptDecoder) decision() Decision {
	v := d.uvarint()
	if d.err == nil && v > uint64(DEither) {
		d.err = fmt.Errorf("feasibility: decision %d out of range", v)
	}
	return Decision(v)
}

func (d *ckptDecoder) table() Table {
	n := d.count(3)
	t := make(Table, n)
	for i := 0; i < n && d.err == nil; i++ {
		o := d.obsKey()
		t[o] = d.decision()
	}
	return t
}

// appendCredits writes a credit list — a count, then per credit its
// obsHash (fixed 8 bytes) and value — followed by an empty legacy list
// (see skipLegacyNogoods). credits reads it back.
func appendCredits(b []byte, credits []ckptCredit) []byte {
	b = binary.AppendUvarint(b, uint64(len(credits)))
	for _, cr := range credits {
		b = binary.LittleEndian.AppendUint64(b, cr.hash)
		b = binary.AppendVarint(b, cr.credit)
	}
	return append(b, 0)
}

// credits reads a credit list written by appendCredits, then skips the
// legacy list after it.
func (d *ckptDecoder) credits() []ckptCredit {
	n := d.count(9)
	credits := make([]ckptCredit, 0, n)
	for i := 0; i < n; i++ {
		raw := d.bytes(8)
		var h uint64
		if d.err == nil {
			h = binary.LittleEndian.Uint64(raw)
		}
		credits = append(credits, ckptCredit{hash: h, credit: d.varint()})
	}
	d.skipLegacyNogoods()
	return credits
}

// skipLegacyNogoods reads and discards the list that ends a format-1
// checkpoint and a ShardResult's pruning export: the records of a
// refuted-subtable (nogood) memo the search no longer has, each a
// pending limit and its (observation, decision) entries. Writers emit
// an empty list; old lists are validated as before — a truncated list
// or an out-of-range decision still fails the decode — and discarded,
// so stored checkpoints and in-flight drains still resume.
func (d *ckptDecoder) skipLegacyNogoods() {
	for i := d.count(2); i > 0 && d.err == nil; i-- {
		d.uvarint()
		d.table()
	}
}

// MarshalBinary encodes the checkpoint for journaling. The encoding is
// deterministic: capturing the same quiesced state twice yields
// identical bytes.
func (ck *Checkpoint) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 256+64*len(ck.nodes))
	b = append(b, ckptMagic...)
	b = binary.AppendUvarint(b, ckptFormat)
	b = binary.AppendUvarint(b, uint64(len(ck.version)))
	b = append(b, ck.version...)
	b = binary.AppendUvarint(b, uint64(ck.inst.N))
	b = binary.AppendUvarint(b, uint64(ck.inst.K))
	b = binary.AppendUvarint(b, uint64(ck.inst.MaxCycleLen))
	var flags byte
	if ck.modes.noQuotient {
		flags |= 1
	}
	if ck.modes.noIncremental {
		flags |= 2
	}
	if ck.modes.noPrune {
		flags |= 4
	}
	if ck.prior != nil {
		flags |= 8
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(ck.inst.PendingTiers)))
	for _, t := range ck.inst.PendingTiers {
		b = binary.AppendUvarint(b, uint64(t))
	}
	b = binary.AppendUvarint(b, uint64(ck.tierIndex))
	b = appendResultCounters(b, &ck.counters)
	if ck.prior != nil {
		b = ck.prior.AppendBinary(b)
	}
	b = binary.AppendUvarint(b, uint64(len(ck.nodes)))
	for _, nd := range ck.nodes {
		b = binary.AppendVarint(b, int64(nd.parent))
		b = appendObsKey(b, nd.obs)
		b = binary.AppendUvarint(b, uint64(nd.d))
		b = binary.AppendVarint(b, int64(nd.openKids))
	}
	b = binary.AppendUvarint(b, uint64(len(ck.frontier)))
	for _, id := range ck.frontier {
		b = binary.AppendUvarint(b, uint64(id))
	}
	return appendCredits(b, ck.credits), nil
}

// UnmarshalCheckpoint decodes a checkpoint produced by MarshalBinary.
// It validates structure (magic, format, ranges, internal references)
// but not solver compatibility — Resume's validateFor does that.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, errors.New("feasibility: not a checkpoint (bad magic)")
	}
	d := &ckptDecoder{b: data[len(ckptMagic):]}
	if f := d.uvarint(); d.err == nil && f != ckptFormat {
		return nil, fmt.Errorf("feasibility: unsupported checkpoint format %d", f)
	}
	ck := &Checkpoint{}
	ck.version = string(d.bytes(int(d.uvarint())))
	ck.inst.N = int(d.uvarint())
	ck.inst.K = int(d.uvarint())
	ck.inst.MaxCycleLen = int(d.uvarint())
	flags := d.byte()
	ck.modes = searchModes{noQuotient: flags&1 != 0, noIncremental: flags&2 != 0, noPrune: flags&4 != 0}
	ck.inst.PendingTiers = make([]int, 0, d.count(1))
	for i := cap(ck.inst.PendingTiers); i > 0; i-- {
		ck.inst.PendingTiers = append(ck.inst.PendingTiers, int(d.uvarint()))
	}
	ck.tierIndex = int(d.uvarint())
	d.resultCounters(&ck.counters)
	if flags&8 != 0 {
		ck.prior = d.table()
	}
	nNodes := d.count(4)
	ck.nodes = make([]ckptNode, 0, nNodes)
	for i := 0; i < nNodes; i++ {
		parent := d.varint()
		if d.err == nil && (parent < -1 || parent >= int64(i)) {
			return nil, fmt.Errorf("feasibility: checkpoint node %d has invalid parent %d", i, parent)
		}
		obs := d.obsKey()
		dec := d.decision()
		kids := d.varint()
		ck.nodes = append(ck.nodes, ckptNode{parent: int32(parent), obs: obs, d: dec, openKids: int32(kids)})
	}
	nFront := d.count(1)
	ck.frontier = make([]int32, 0, nFront)
	for i := 0; i < nFront; i++ {
		id := d.uvarint()
		if d.err == nil && id >= uint64(len(ck.nodes)) {
			return nil, fmt.Errorf("feasibility: checkpoint frontier references node %d of %d", id, len(ck.nodes))
		}
		ck.frontier = append(ck.frontier, int32(id))
	}
	ck.credits = d.credits()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("feasibility: %d trailing bytes after checkpoint", len(d.b))
	}
	return ck, nil
}

// CheckpointWriter journals a solver's periodic checkpoints behind the
// search; WriteBehind installs one.
type CheckpointWriter struct {
	write func(raw []byte) error
	// written carries the outcome of the one write in flight (nil when
	// none is). Barriers run one at a time under the solver's queue
	// lock, and the owner calls Wait only after the solve returns.
	written chan error
}

// WriteBehind sets s.OnCheckpoint so that each periodic checkpoint is
// encoded at the quiesce barrier and its bytes handed to write on a
// goroutine while the search runs on. The next barrier first waits for
// that write, and a write error returned there aborts the solve. So
// write sees every checkpoint, in order, one at a time, and every
// checkpoint but the newest is written while the solve still runs.
// After the solve returns, call Wait before writing anything that must
// follow the last checkpoint.
func WriteBehind(s *Solver, write func(raw []byte) error) *CheckpointWriter {
	w := &CheckpointWriter{write: write}
	s.OnCheckpoint = w.onCheckpoint
	return w
}

func (w *CheckpointWriter) onCheckpoint(cp *Checkpoint) error {
	raw, err := cp.MarshalBinary()
	if err != nil {
		return err // an encoding failure is a software bug, not a write failure
	}
	if err := w.Wait(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- w.write(raw) }()
	w.written = done
	return nil
}

// Wait blocks until the write in flight, if any, has finished and
// returns its error.
func (w *CheckpointWriter) Wait() error {
	if w.written == nil {
		return nil
	}
	err := <-w.written
	w.written = nil
	return err
}
