package feasibility

import (
	"math/bits"

	"ringrobots/internal/config"
	"ringrobots/internal/ring"
)

// maxRingSize is the widest ring the solver supports: n ≤ 32 keeps every
// single-word bitmask — occupancy, activation sets, per-edge
// contamination, and their rotations — inside a uint64. The binding
// constraints are those masks, not the pending register (see state).
const maxRingSize = 32

// state is a game position: which nodes are occupied and which of them
// hold robots with a computed-but-unexecuted move. It is a plain
// comparable 192-bit value, used directly as the interning key of the
// state graph.
type state struct {
	occupied uint64 // bitmask over nodes
	// pending holds 2 bits per node (0 none, 1 cw, 2 ccw), node u at bits
	// [2(u mod 32), 2(u mod 32)+2) of word u/32. Only word 0 is populated
	// at the current maxRingSize of 32; the second word is headroom for
	// an n ≤ 64 solver once the occupancy/contamination masks and their
	// rotation helpers grow past single words.
	pending [2]uint64
}

func (s state) occupiedAt(u int) bool { return s.occupied&(1<<uint(u)) != 0 }

func (s state) pendingAt(u int) (ring.Direction, bool) {
	switch (s.pending[u>>5] >> (2 * (uint(u) & 31))) & 3 {
	case 1:
		return ring.CW, true
	case 2:
		return ring.CCW, true
	}
	return 0, false
}

// anyPending reports whether any robot holds a computed-but-unexecuted move.
func (s state) anyPending() bool { return s.pending[0]|s.pending[1] != 0 }

// pendingCount counts robots holding a computed-but-unexecuted move —
// the collision-likelihood key for dirty-state re-expansion ordering
// (incremental.go): every pending execution is a move the adversary can
// fire into a changed occupancy.
func (s state) pendingCount() int {
	const odd = 0x5555555555555555
	return bits.OnesCount64((s.pending[0]|s.pending[0]>>1)&odd) +
		bits.OnesCount64((s.pending[1]|s.pending[1]>>1)&odd)
}

func (s state) withPending(u int, d ring.Direction) state {
	bits := uint64(1)
	if d == ring.CCW {
		bits = 2
	}
	s.pending[u>>5] |= bits << (2 * (uint(u) & 31))
	return s
}

func (s state) clearPending(u int) state {
	s.pending[u>>5] &^= 3 << (2 * (uint(u) & 31))
	return s
}

// hashState mixes the 192-bit packed state into a 64-bit hash for the
// open-addressing intern table. A splitmix-style finalizer over the
// three words: cheap, and strong enough that linear probing stays short
// at the table's 3/4 load cap.
func hashState(s state) uint64 {
	h := s.occupied
	h = (h ^ s.pending[0]*0xbf58476d1ce4e5b9) * 0x9e3779b97f4a7c15
	h = (h ^ s.pending[1]*0x94d049bb133111eb) * 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 29
	return h
}

// config materializes the occupied set as a configuration value.
func (s state) config(n int) config.Config {
	nodes := make([]int, 0, 8)
	for u := 0; u < n; u++ {
		if s.occupiedAt(u) {
			nodes = append(nodes, u)
		}
	}
	return config.MustNew(n, nodes...)
}

// --- contamination on edge bitmasks -----------------------------------------
//
// The solver tracks §4.1 contamination as an edge mask per state and
// refreshes it with ring.ContRefresh; the boolean-slice oracle is
// retained in the tests and differentially checked.

// contApply records a batch of simultaneous traversals (as origin masks
// per direction) against the post-move occupancy and returns the
// refreshed clear mask. A robot leaving node u clockwise traverses edge
// u; counterclockwise, edge u−1.
func contApply(clear, movesCW, movesCCW, occAfter uint64, n int) uint64 {
	clear |= movesCW | config.MaskRotate(movesCCW, n-1, n)
	return ring.ContRefresh(clear, occAfter, n)
}
