// Package enumerate generates configuration spaces: every exclusive
// configuration of k robots on an n-node ring up to rotation and
// reflection (the distinct configurations of the anonymous unoriented
// model), plus filtered and randomized variants.
//
// These spaces drive the exhaustive theorem verifications (E1, E5–E7 in
// cmd/experiments) and regenerate the configuration counts of the paper's
// Figures 4–9.
package enumerate

import (
	"fmt"
	"math/rand"

	"ringrobots/internal/config"
)

// Classes returns one representative per equivalence class (rotation +
// reflection) of exclusive configurations with k occupied nodes on an
// n-node ring. Representatives are canonical: each is rebuilt from its
// supermin view anchored at node 0, so equal classes yield equal configs.
// The slice is ordered by supermin view (lexicographically increasing).
func Classes(n, k int) ([]config.Config, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("enumerate: k=%d out of range for n=%d", k, n)
	}
	seen := make(map[config.CanonKey]bool)
	var out []config.Config
	nodes := make([]int, k)
	// Fix node 0 occupied: every class has a representative containing
	// node 0, cutting the subset enumeration by a factor of n/k.
	var rec func(idx, next int)
	rec = func(idx, next int) {
		if idx == k {
			c := config.MustNew(n, nodes...)
			key := c.CanonKey()
			if !seen[key] {
				seen[key] = true
				canon, err := config.FromIntervals(0, c.SuperminView())
				if err != nil {
					panic(err)
				}
				out = append(out, canon)
			}
			return
		}
		for u := next; u <= n-(k-idx); u++ {
			nodes[idx] = u
			rec(idx+1, u+1)
		}
	}
	nodes[0] = 0
	rec(1, 1)
	sortByView(out)
	return out, nil
}

// RigidClasses returns the rigid members of Classes(n, k).
func RigidClasses(n, k int) ([]config.Config, error) {
	all, err := Classes(n, k)
	if err != nil {
		return nil, err
	}
	out := all[:0]
	for _, c := range all {
		if c.IsRigid() {
			out = append(out, c)
		}
	}
	return out, nil
}

// Count returns the number of equivalence classes (distinct configurations
// in the anonymous unoriented model) — the quantity shown by the paper's
// Figures 4–9 (e.g. 4 classes for k=4, n=7).
func Count(n, k int) (int, error) {
	cls, err := Classes(n, k)
	if err != nil {
		return 0, err
	}
	return len(cls), nil
}

// RandomRigid returns a uniformly random exclusive configuration of k
// robots on n nodes that is rigid, drawn with the given source. It errors
// after maxTries failures (some (n,k) have no rigid configurations, e.g.
// k ≥ n−2 or tiny rings).
func RandomRigid(rng *rand.Rand, n, k int, maxTries int) (config.Config, error) {
	if k < 1 || k >= n {
		return config.Config{}, fmt.Errorf("enumerate: no exclusive configuration for n=%d, k=%d", n, k)
	}
	for try := 0; try < maxTries; try++ {
		nodes := rng.Perm(n)[:k]
		c := config.MustNew(n, nodes...)
		if c.IsRigid() {
			return c, nil
		}
	}
	return config.Config{}, fmt.Errorf("enumerate: no rigid configuration found for n=%d, k=%d after %d tries", n, k, maxTries)
}

// HasRigid reports whether any rigid exclusive configuration of k robots
// on n nodes exists (computed exhaustively; intended for small n).
func HasRigid(n, k int) (bool, error) {
	cls, err := RigidClasses(n, k)
	if err != nil {
		return false, err
	}
	return len(cls) > 0, nil
}

func sortByView(cs []config.Config) {
	// Insertion sort by supermin view; class counts are small.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].SuperminView().Less(cs[j-1].SuperminView()); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
