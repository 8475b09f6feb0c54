package mcsim

import "ringrobots/internal/ring"

// Mask contamination: the mixed graph-searching rules of §4.1 on
// single-word edge bitmasks (n ≤ 64), with the fixpoint computed by
// ring.ContRefresh. A traversed edge becomes clear, then the guarded
// and recontamination rules run. TestMaskContaminationMatchesOracle
// pins the equivalence with package search's Contamination tracker.

// fullMask returns the n low bits set (valid for n ≤ 64: a shift count
// of 64 yields 0, so 0−1 wraps to all-ones).
func fullMask(n int) uint64 { return uint64(1)<<uint(n) - 1 }

// contInit returns the initial clear mask for occupancy occ: every edge
// contaminated, then the guarded-edge rule applied (the state
// search.NewContamination starts from).
func contInit(occ uint64, n int) uint64 { return ring.ContRefresh(0, occ, n) }

// clearReset is the adversarial probe applied after every all-clear
// event, mirroring search.Contamination.Reset: all edges recontaminated,
// then the guarded-edge rule for the current occupancy. Without it the
// all-clear state would be absorbing (no contaminated edge is left to
// spread), so "clearing again" — the recurrence defining perpetual
// searching — could never be observed. The degenerate k = n occupancy
// (every edge guarded, the probe is immediately all-clear again) zeroes
// the mask instead, avoiding an event per move.
func clearReset(occ uint64, n int) uint64 {
	c := contInit(occ, n)
	if c == fullMask(n) {
		return 0
	}
	return c
}

// contMove returns the clear mask after a robot moved from node `from`
// to adjacent node `to` under post-move occupancy occ: the traversed
// edge becomes clear, then the guarded/recontamination fixpoint runs.
func contMove(clear, occ uint64, n, from, to int) uint64 {
	var traversed uint64
	if (from+1)%n == to {
		traversed = 1 << uint(from)
	} else {
		traversed = 1 << uint(to)
	}
	return ring.ContRefresh(clear|traversed, occ, n)
}
