// Package ring provides arithmetic on an anonymous n-node ring.
//
// Nodes are labeled 0..n-1 for the simulator's internal bookkeeping only;
// the labels carry no meaning in the robot model (the ring is anonymous and
// unoriented). Directions +1 and -1 are likewise simulator-internal: they
// give the engine a consistent way to apply moves, but algorithms never
// observe them. The package also holds the edge-mask contamination
// kernel (ContRefresh) shared by the feasibility solver and the Monte
// Carlo engine.
package ring

import "fmt"

// Direction is a simulator-internal orientation of the ring.
// Robots have no compass; a Direction only labels which neighbor a move
// targets from the engine's point of view.
type Direction int

const (
	// CW is the direction of increasing node labels.
	CW Direction = 1
	// CCW is the direction of decreasing node labels.
	CCW Direction = -1
)

// Opposite returns the reverse direction.
func (d Direction) Opposite() Direction { return -d }

func (d Direction) String() string {
	switch d {
	case CW:
		return "cw"
	case CCW:
		return "ccw"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Ring is an n-node cycle. The zero value is invalid; use New.
type Ring struct {
	n int
}

// New returns a ring with n nodes. It panics if n < 3, matching the paper's
// model (§2 assumes n ≥ 3).
func New(n int) Ring {
	if n < 3 {
		panic(fmt.Sprintf("ring: need n >= 3 nodes, got %d", n))
	}
	return Ring{n: n}
}

// N returns the number of nodes.
func (r Ring) N() int { return r.n }

// Norm maps any integer to its node label in [0, n).
func (r Ring) Norm(v int) int {
	v %= r.n
	if v < 0 {
		v += r.n
	}
	return v
}

// Step returns the neighbor of node u in direction d.
func (r Ring) Step(u int, d Direction) int {
	return r.Norm(u + int(d))
}

// Add returns the node reached from u by walking k steps in direction d.
func (r Ring) Add(u, k int, d Direction) int {
	return r.Norm(u + k*int(d))
}

// DistCW returns the number of edges on the clockwise walk from u to v.
func (r Ring) DistCW(u, v int) int {
	return r.Norm(v - u)
}

// Dist returns the length of a shortest path between u and v.
func (r Ring) Dist(u, v int) int {
	d := r.DistCW(u, v)
	return min(d, r.n-d)
}

// Adjacent reports whether u and v share an edge.
func (r Ring) Adjacent(u, v int) bool {
	return r.Dist(u, v) == 1
}

// Diametral reports whether u and v are diametral in the paper's sense
// (§4.2, Theorem 2): for even n the two u–v paths have equal length; for
// odd n their lengths differ by exactly one.
func (r Ring) Diametral(u, v int) bool {
	d := r.DistCW(u, v)
	other := r.n - d
	if u == v {
		return false
	}
	diff := d - other
	if diff < 0 {
		diff = -diff
	}
	if r.n%2 == 0 {
		return diff == 0
	}
	return diff == 1
}

// Edge identifies the undirected edge between node U and its clockwise
// neighbor. Edge i connects nodes i and i+1 (mod n).
type Edge int

// Edges returns the number of edges (= n).
func (r Ring) Edges() int { return r.n }

// EdgeBetween returns the edge connecting adjacent nodes u and v.
// It panics if they are not adjacent.
func (r Ring) EdgeBetween(u, v int) Edge {
	switch {
	case r.Norm(u+1) == v:
		return Edge(u)
	case r.Norm(v+1) == u:
		return Edge(v)
	}
	panic(fmt.Sprintf("ring: nodes %d and %d are not adjacent in an %d-ring", u, v, r.n))
}

// EdgeEnds returns the two endpoints of edge e.
func (r Ring) EdgeEnds(e Edge) (int, int) {
	u := r.Norm(int(e))
	return u, r.Norm(u + 1)
}

// IncidentEdges returns the two edges incident to node u.
func (r Ring) IncidentEdges(u int) (Edge, Edge) {
	return Edge(r.Norm(u - 1)), Edge(u)
}

// --- contamination on edge bitmasks -----------------------------------------
//
// The mixed-search rules of §4.1 on single-word edge masks: bit e of a
// mask is the state of Edge e, which joins nodes e and e+1 (mod n), and
// bit u of an occupancy mask is node u. The feasibility solver and the
// Monte Carlo backend both evaluate contamination with ContRefresh; its
// semantics are package search's boolean-slice Contamination tracker,
// which each of them checks it against differentially.

// fullMask returns the n low bits set (a shift count of 64 yields 0, so
// 0−1 wraps to all-ones for n = 64).
func fullMask(n int) uint64 { return uint64(1)<<uint(n) - 1 }

// rotUp1 rotates an n-bit mask up by one: bit u of the result is bit u−1
// (mod n) of m. m must have no bits at or above position n.
func rotUp1(m uint64, n int) uint64 {
	return (m<<1 | m>>(uint(n)-1)) & fullMask(n)
}

// rotDown1 rotates an n-bit mask down by one: bit u of the result is
// bit u+1 (mod n) of m.
func rotDown1(m uint64, n int) uint64 {
	return (m>>1 | m<<(uint(n)-1)) & fullMask(n)
}

// ContRefresh returns the stable clear-edge mask of an n-node ring
// (n ≤ 64) reached from the given clear set under occupancy occ: an
// edge between two occupied nodes is always clear, and contamination
// spreads from a contaminated edge through an unoccupied shared
// endpoint to the adjacent edge, iterated to fixpoint.
func ContRefresh(clear, occ uint64, n int) uint64 {
	full := fullMask(n)
	// Both endpoints occupied: edge e joins nodes e and e+1.
	clear |= occ & rotDown1(occ, n)
	dirty := full &^ clear
	for {
		// Unoccupied endpoints of contaminated edges…
		nodes := (dirty | rotUp1(dirty, n)) &^ occ
		// …recontaminate both of their incident edges (node u touches
		// edges u−1 and u).
		next := dirty | nodes | rotDown1(nodes, n)
		if next == dirty {
			return full &^ dirty
		}
		dirty = next
	}
}
