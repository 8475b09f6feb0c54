// Benchmarks, one family per reproduction experiment (the E-ids follow
// cmd/experiments). This file is the only definition of each family:
// cmd/bench runs it through `go test -bench` and records the rows in
// BENCH_<date>.json. Run directly with:
//
//	go test -run '^$' -bench . -benchmem .
package ringrobots

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ringrobots/internal/align"
	"ringrobots/internal/config"
	"ringrobots/internal/corda"
	"ringrobots/internal/core"
	"ringrobots/internal/enumerate"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/gather"
	"ringrobots/internal/mcsim"
	"ringrobots/internal/search"
)

// --- E1: Algorithm Align ---------------------------------------------------

func BenchmarkAlignPlanner(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{12, 5}, {24, 8}, {48, 12}, {96, 16}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", tc.n, tc.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			start, err := enumerate.RandomRigid(rng, tc.n, tc.k, 100000)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := start
				for !c.IsCStar() {
					p, err := align.ComputePlan(c)
					if err != nil {
						b.Fatal(err)
					}
					c, err = align.Apply(c, p)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkAlignLocalDecision(b *testing.B) {
	// Cost of one robot's Look+Compute in the Align phase.
	b.Run("n=32/k=10", func(b *testing.B) {
		c, err := enumerate.RandomRigid(rand.New(rand.NewSource(2)), 32, 10, 100000)
		if err != nil {
			b.Fatal(err)
		}
		w := corda.FromConfig(c, true)
		snap, _ := w.Snapshot(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			align.DecideFromSnapshot(snap)
		}
	})
}

// --- E2: configuration algebra (the substrate of every lemma check) --------

func BenchmarkSupermin(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{16, 8}, {64, 16}, {256, 32}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", tc.n, tc.k), func(b *testing.B) {
			c, err := enumerate.RandomRigid(rand.New(rand.NewSource(3)), tc.n, tc.k, 100000)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Supermin()
			}
		})
	}
}

// BenchmarkSuperminCold measures the one-shot cost of the canonical
// pass (Booth + KMP + key) on a fresh Config each iteration — the honest
// kernel cost, with the memoization benefit excluded. Rebuild overhead
// (BenchmarkConfigRebuild) is included and can be subtracted.
func BenchmarkSuperminCold(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{16, 8}, {64, 16}, {256, 32}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", tc.n, tc.k), func(b *testing.B) {
			c, err := enumerate.RandomRigid(rand.New(rand.NewSource(3)), tc.n, tc.k, 100000)
			if err != nil {
				b.Fatal(err)
			}
			nodes := c.Nodes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := config.MustNew(tc.n, nodes...)
				fresh.Supermin()
			}
		})
	}
}

// BenchmarkConfigRebuild isolates the construction cost paid inside
// BenchmarkSuperminCold.
func BenchmarkConfigRebuild(b *testing.B) {
	c, err := enumerate.RandomRigid(rand.New(rand.NewSource(3)), 256, 32, 100000)
	if err != nil {
		b.Fatal(err)
	}
	nodes := c.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		config.MustNew(256, nodes...)
	}
}

// BenchmarkCanonKey measures canonical-key construction on fresh
// configurations (the dedup cost in enumeration and solver seen-sets).
func BenchmarkCanonKey(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{9, 4}, {64, 16}, {256, 32}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", tc.n, tc.k), func(b *testing.B) {
			c, err := enumerate.RandomRigid(rand.New(rand.NewSource(9)), tc.n, tc.k, 100000)
			if err != nil {
				b.Fatal(err)
			}
			nodes := c.Nodes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := config.MustNew(tc.n, nodes...)
				fresh.CanonKey()
			}
		})
	}
}

func BenchmarkRigidityDetection(b *testing.B) {
	b.Run("n=128/k=24", func(b *testing.B) {
		c, err := enumerate.RandomRigid(rand.New(rand.NewSource(4)), 128, 24, 100000)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !c.IsRigid() {
				b.Fatal("fixture lost rigidity")
			}
		}
	})
}

// --- E3: Figures 4–9 transition diagrams -----------------------------------

func BenchmarkTransitionDiagram(b *testing.B) {
	for _, f := range feasibility.PaperFigures() {
		b.Run(fmt.Sprintf("fig%d_k%d_n%d", f.Figure, f.K, f.N), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := feasibility.NewTransitionGraph(f.N, f.K)
				if err != nil {
					b.Fatal(err)
				}
				if len(g.Classes) != f.Classes {
					b.Fatalf("class count %d != %d", len(g.Classes), f.Classes)
				}
			}
		})
	}
}

// --- E4: impossibility game solver ------------------------------------------

func BenchmarkImpossibility(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{5, 2}, {6, 3}, {7, 4}} {
		b.Run(fmt.Sprintf("k=%d_n=%d", tc.k, tc.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := feasibility.NewSolver(tc.n, tc.k).Solve()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Impossible {
					b.Fatal("expected impossibility")
				}
			}
		})
	}
}

// BenchmarkFeasibilitySolve measures full impossibility solves on the
// Theorem 5 cases with one worker (the single-thread cost; cross-worker
// behaviour is pinned by the determinism tests, not timed here). The
// incremental=off and prune=off rows keep the respective differential
// oracles' cost on record, quantifying the sibling-branch reuse and
// tree-level pruning wins over time. n=11/k=6 is the instance the
// end-to-end drain-single workload drains: 11,000 tables. With lasso
// checks memoized by loop content (93% of them hit), its CPU profile
// (2-CPU container) is the per-branch analysis: Tarjan and the
// contamination replay take about 21%, the nogood memo's per-branch
// hashes and probes 16%, branch selection 13%, and the lasso hunt 12%,
// of which the checks are 7% (5% on memo misses).
func BenchmarkFeasibilitySolve(b *testing.B) {
	for _, tc := range []struct {
		n, k          int
		noIncremental bool
		noPrune       bool
	}{
		{7, 4, false, false}, {8, 5, false, false},
		{7, 4, true, false}, {8, 5, true, false},
		{7, 4, false, true}, {8, 5, false, true},
		{11, 6, false, false},
	} {
		name := fmt.Sprintf("n=%d/k=%d/workers=1", tc.n, tc.k)
		if tc.noIncremental {
			name += "/incremental=off"
		}
		if tc.noPrune {
			name += "/prune=off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := feasibility.NewSolver(tc.n, tc.k)
				s.Workers = 1
				s.NoIncremental = tc.noIncremental
				s.NoPrune = tc.noPrune
				res, err := s.Solve()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Impossible {
					b.Fatal("expected impossibility")
				}
			}
		})
	}
}

// BenchmarkFeasibilityThroughput measures state-expansion throughput on
// the deep (5,9) case with a fixed 2M-expansion budget per op, the
// stable proxy for the full multi-second solve: every op performs the
// same amount of graph work regardless of verdict. The quotient=off row
// is the unquotiented differential oracle, kept on record to quantify
// the symmetry quotient's win.
func BenchmarkFeasibilityThroughput(b *testing.B) {
	for _, noQuotient := range []bool{false, true} {
		quot := "on"
		if noQuotient {
			quot = "off"
		}
		b.Run("n=9/k=5/budget=2M/workers=1/quotient="+quot, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := feasibility.NewSolver(9, 5)
				s.Workers = 1
				s.MaxExpansions = 2_000_000
				s.NoQuotient = noQuotient
				if _, err := s.Solve(); err != nil && !errors.Is(err, feasibility.ErrBudget) {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: Ring Clearing ------------------------------------------------------

func BenchmarkRingClearingCycle(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{11, 5}, {12, 6}, {16, 8}, {24, 12}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", tc.n, tc.k), func(b *testing.B) {
			c, err := config.CStar(tc.n, tc.k)
			if err != nil {
				b.Fatal(err)
			}
			alg := search.RingClearing{}
			if err := alg.Validate(tc.n, tc.k); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := corda.FromConfig(c, true)
				r := corda.NewRunner(w, alg)
				moves := 0
				for moves < tc.n+5 { // one full A-cycle of moves
					moved, err := r.Step()
					if err != nil {
						b.Fatal(err)
					}
					if moved {
						moves++
					}
				}
			}
		})
	}
}

func BenchmarkVerifyPerpetualSearch(b *testing.B) {
	c, err := config.CStar(12, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := search.Verify(c, search.RingClearing{}, 500000)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Explored {
			b.Fatal("verification failed")
		}
	}
}

// --- E6: NminusThree ---------------------------------------------------------

func BenchmarkNminusThree(b *testing.B) {
	for _, n := range []int{10, 12, 16, 24} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Phase 1 from the worst spread + one phase-2 cycle.
			occupied := make([]int, 0, n-3)
			pos := 0
			for _, size := range []int{1, 2, n - 6} {
				pos++
				for j := 0; j < size; j++ {
					occupied = append(occupied, pos)
					pos++
				}
			}
			c := config.MustNew(n, occupied...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur := c
				for steps := 0; steps < 3*n; steps++ {
					p, err := search.ComputeN3Plan(cur)
					if err != nil {
						b.Fatal(err)
					}
					cur, err = cur.Move(p.Mover, p.Target)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- E7: gathering ------------------------------------------------------------

func BenchmarkGathering(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{12, 5}, {24, 8}, {48, 10}, {96, 12}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", tc.n, tc.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			start, err := enumerate.RandomRigid(rng, tc.n, tc.k, 100000)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := gather.NewWorld(start)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := gather.Run(w, 500*tc.n*tc.n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: characterization -------------------------------------------------------

func BenchmarkCharacterize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 3; n <= 40; n++ {
			for k := 1; k <= n; k++ {
				CharacterizeSearching(n, k)
			}
		}
	}
}

// --- E9: engines ----------------------------------------------------------------

func BenchmarkEngineSequential(b *testing.B) {
	start, err := enumerate.RandomRigid(rand.New(rand.NewSource(6)), 16, 6, 100000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := gather.NewWorld(start)
		r := corda.NewRunner(w, gather.Gathering{})
		if _, err := r.RunUntil((*corda.World).Gathered, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineAsync(b *testing.B) {
	start, err := enumerate.RandomRigid(rand.New(rand.NewSource(6)), 16, 6, 100000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := gather.NewWorld(start)
		r := corda.NewAsyncRunner(w, gather.Gathering{}, corda.NewRandomAsync(int64(i), 0.3))
		if _, err := r.RunUntil((*corda.World).Gathered, 1000000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: batched Monte Carlo simulation (internal/mcsim) -------------------

// BenchmarkMCSimGather and BenchmarkMCSimSearch measure the batch
// engine's steady-state step rate: one op simulates a full warm batch
// (decision caches populated, zero allocations); divide ns/op by the
// lane count for per-sample cost. steps/sec and samples/sec are reported
// as extra metrics. Gathering lanes stop at the goal, searching lanes
// run to their full tick budget.
func BenchmarkMCSimGather(b *testing.B) {
	b.Run("n=12/k=5/lanes=4096/workers=1", func(b *testing.B) {
		benchMCSim(b, core.Gathering, 12, 5, 4096, 100000)
	})
}

func BenchmarkMCSimSearch(b *testing.B) {
	b.Run("n=12/k=6/lanes=256/workers=1", func(b *testing.B) {
		benchMCSim(b, core.Searching, 12, 6, 256, 4096)
	})
}

func benchMCSim(b *testing.B, task core.Task, n, k, lanes, steps int) {
	start, err := enumerate.RandomRigid(rand.New(rand.NewSource(8)), n, k, 100000)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := mcsim.SpecFor(task, start, lanes, steps, 42)
	if err != nil {
		b.Fatal(err)
	}
	e, err := mcsim.New(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := e.Simulate() // warm the decision cache
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err = e.Simulate(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(rep.Steps)*float64(b.N)/sec, "steps/sec")
		b.ReportMetric(float64(rep.Samples)*float64(b.N)/sec, "samples/sec")
	}
}

// --- snapshot construction (shared cost of every Look in every experiment) ---

func BenchmarkSnapshot(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{16, 6}, {64, 16}, {256, 24}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", tc.n, tc.k), func(b *testing.B) {
			c, err := enumerate.RandomRigid(rand.New(rand.NewSource(7)), tc.n, tc.k, 100000)
			if err != nil {
				b.Fatal(err)
			}
			w := corda.FromConfig(c, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Snapshot(i % tc.k)
			}
		})
	}
}
