package config

import "sort"

// Run is a maximal block of consecutive occupied nodes.
type Run struct {
	// Start is the first node of the block walking clockwise.
	Start int
	// Len is the number of occupied nodes in the block (≥ 1).
	Len int
	// GapAfter is the number of empty nodes between this block and the
	// next block clockwise (≥ 1, since blocks are maximal).
	GapAfter int
}

// Runs returns the maximal blocks of consecutive occupied nodes in
// clockwise order, starting from the block containing the smallest
// occupied node label. For a full ring (k = n) it returns a single run
// with GapAfter 0.
func (c Config) Runs() []Run {
	n := c.N()
	if c.K() == n {
		return []Run{{Start: 0, Len: n, GapAfter: 0}}
	}
	occ := make([]bool, n)
	for _, u := range c.nodes {
		occ[u] = true
	}
	var runs []Run
	seen := make([]bool, n)
	for _, u := range c.nodes {
		if seen[u] {
			continue
		}
		// Walk back to the block start.
		start := u
		for occ[c.r.Norm(start-1)] {
			start = c.r.Norm(start - 1)
		}
		length := 0
		for v := start; occ[v]; v = c.r.Norm(v + 1) {
			seen[v] = true
			length++
		}
		gap := 0
		for v := c.r.Norm(start + length); !occ[v]; v = c.r.Norm(v + 1) {
			gap++
		}
		runs = append(runs, Run{Start: start, Len: length, GapAfter: gap})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Start < runs[j].Start })
	// Rotate so that consecutive entries are clockwise-consecutive blocks
	// (they already are: sorting by start node preserves cyclic order).
	return runs
}
