// Command bench runs the repo's benchmark families programmatically and
// emits a machine-readable BENCH_<date>.json, so the performance
// trajectory of the hot paths (configuration algebra, Align planning,
// Look/snapshot construction, enumeration, the impossibility solver) is
// tracked across PRs.
//
// Usage:
//
//	go run ./cmd/bench            # writes BENCH_<yyyy-mm-dd>.json
//	go run ./cmd/bench -out f.json -filter Align
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"ringrobots/internal/align"
	"ringrobots/internal/config"
	"ringrobots/internal/corda"
	"ringrobots/internal/core"
	"ringrobots/internal/enumerate"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/gather"
	"ringrobots/internal/mcsim"
)

type result struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	// NsPerOp is the median over Repeats independent runs — the point
	// estimate benchdiff compares.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Repeats and the spread below let benchdiff separate machine noise
	// from real regressions: a slowdown only counts when the runs'
	// ranges are disjoint beyond the threshold. Repeats == 1 (or absent,
	// in reports from before the field existed) disables that and falls
	// back to comparing point estimates.
	Repeats     int     `json:"repeats,omitempty"`
	NsPerOpMin  float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64 `json:"ns_per_op_max,omitempty"`
	NsPerOpStdd float64 `json:"ns_per_op_stddev,omitempty"`
}

type report struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Repeats    int      `json:"repeats,omitempty"`
	Benchmarks []result `json:"benchmarks"`
	// SolverCounters records the tree-level statistics of reference
	// impossibility solves (explored tables, memo hits, dominated
	// branches, …) so the pruning trajectory is tracked alongside the
	// timing rows. Ignored by cmd/benchdiff (which gates only ns/op).
	SolverCounters []solverCounters `json:"solver_counters,omitempty"`
}

// solverCounters is one reference solve's tree-level statistics.
type solverCounters struct {
	Case              string `json:"case"`
	TablesExplored    int    `json:"tables_explored"`
	TablesMemoHit     int64  `json:"tables_memo_hit"`
	BranchesDominated int64  `json:"branches_dominated"`
	BranchesReused    int64  `json:"branches_reused"`
	StatesReexpanded  int64  `json:"states_reexpanded"`
}

type family struct {
	name string
	fn   func(b *testing.B)
}

func families() []family {
	var fams []family
	add := func(name string, fn func(b *testing.B)) {
		fams = append(fams, family{name: name, fn: fn})
	}

	rigid := func(seed int64, n, k int) config.Config {
		c, err := enumerate.RandomRigid(rand.New(rand.NewSource(seed)), n, k, 100000)
		if err != nil {
			panic(err)
		}
		return c
	}

	// Configuration algebra: memoized, cold-kernel, and canonical key.
	c256 := rigid(3, 256, 32)
	add("Supermin/n=256/k=32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c256.Supermin()
		}
	})
	nodes256 := c256.Nodes()
	add("SuperminCold/n=256/k=32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh := config.MustNew(256, nodes256...)
			fresh.Supermin()
		}
	})
	add("CanonKey/n=256/k=32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh := config.MustNew(256, nodes256...)
			fresh.CanonKey()
		}
	})
	c128 := rigid(4, 128, 24)
	add("RigidityDetection/n=128/k=24", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !c128.IsRigid() {
				b.Fatal("fixture lost rigidity")
			}
		}
	})

	// Align planning loop (drive to C* from a rigid start).
	for _, tc := range []struct{ n, k int }{{12, 5}, {24, 8}, {48, 12}, {96, 16}} {
		start := rigid(1, tc.n, tc.k)
		add(fmt.Sprintf("AlignPlanner/n=%d/k=%d", tc.n, tc.k), func(b *testing.B) {
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

	// One robot's Look+Compute.
	cLocal := rigid(2, 32, 10)
	wLocal := corda.FromConfig(cLocal, true)
	snapLocal, _ := wLocal.Snapshot(3)
	add("AlignLocalDecision/n=32/k=10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.DecideFromSnapshot(snapLocal)
		}
	})

	// Snapshot construction (the shared cost of every Look).
	cSnap := rigid(7, 256, 24)
	wSnap := corda.FromConfig(cSnap, true)
	add("Snapshot/n=256/k=24", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wSnap.Snapshot(i % 24)
		}
	})

	// Enumeration / transition diagrams (Figure 5: k=4, n=8).
	add("TransitionDiagram/fig5_k4_n8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := feasibility.NewTransitionGraph(8, 4)
			if err != nil {
				b.Fatal(err)
			}
			if len(g.Classes) != 8 {
				b.Fatalf("class count %d != 8", len(g.Classes))
			}
		}
	})

	// Impossibility game solver (Figure 4's parameters).
	add("Impossibility/k=4_n=7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := feasibility.NewSolver(7, 4).Solve()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Impossible {
				b.Fatal("expected impossibility")
			}
		}
	})

	// Full solver runs, sequential vs parallel (the sharded table search;
	// on a single-vCPU runner both land in the same ballpark). The
	// incremental=off and prune=off rows keep the respective oracles'
	// cost on record, quantifying the sibling-branch reuse and
	// tree-level pruning wins over time.
	for _, tc := range []struct {
		n, k, workers int
		noIncremental bool
		noPrune       bool
	}{
		{7, 4, 1, false, false}, {7, 4, 0, false, false},
		{8, 5, 1, false, false}, {8, 5, 0, false, false},
		{7, 4, 1, true, false}, {8, 5, 1, true, false},
		{7, 4, 1, false, true}, {8, 5, 1, false, true},
	} {
		tc := tc
		name := fmt.Sprintf("FeasibilitySolve/n=%d/k=%d/workers=%d", tc.n, tc.k, tc.workers)
		if tc.noIncremental {
			name += "/incremental=off"
		}
		if tc.noPrune {
			name += "/prune=off"
		}
		add(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := feasibility.NewSolver(tc.n, tc.k)
				s.Workers = tc.workers
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

	// State-expansion throughput on the deep (5,9) case: fixed
	// 2M-expansion budget per op, so every op does identical graph work.
	// The quotient=off row keeps the unquotiented oracle's cost on
	// record, quantifying the symmetry quotient's win over time.
	for _, tc := range []struct {
		workers    int
		noQuotient bool
	}{
		{1, false}, {0, false}, {1, true},
	} {
		tc := tc
		quot := "on"
		if tc.noQuotient {
			quot = "off"
		}
		add(fmt.Sprintf("FeasibilityThroughput/n=9/k=5/budget=2M/workers=%d/quotient=%s", tc.workers, quot), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := feasibility.NewSolver(9, 5)
				s.Workers = tc.workers
				s.MaxExpansions = 2_000_000
				s.NoQuotient = tc.noQuotient
				if _, err := s.Solve(); err != nil && !errors.Is(err, feasibility.ErrBudget) {
					b.Fatal(err)
				}
			}
		})
	}

	// Full gathering run (Align phase + contraction + final walk).
	gStart := rigid(5, 24, 8)
	add("Gathering/n=24/k=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, err := gather.NewWorld(gStart)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := gather.Run(w, 500*24*24); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Batched Monte Carlo simulation (internal/mcsim): one op = one warm
	// batch (caches populated, steady state allocates nothing). Divide
	// ns/op by the lane count for per-sample cost.
	mcStart := rigid(8, 12, 5)
	mcSpec := func(task core.Task, samples, steps int) corda.SimSpec {
		spec, err := mcsim.SpecFor(task, mcStart, samples, steps, 42)
		if err != nil {
			panic(err)
		}
		return spec
	}
	addMC := func(name string, spec corda.SimSpec, workers int) {
		e, err := mcsim.New(spec, workers)
		if err != nil {
			panic(err)
		}
		if _, err := e.Simulate(); err != nil {
			panic(err)
		}
		add(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Simulate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	addMC("MCSimGather/n=12/k=5/lanes=4096/workers=1", mcSpec(core.Gathering, 4096, 100000), 1)
	addMC("MCSimGather/n=12/k=5/lanes=4096/workers=0", mcSpec(core.Gathering, 4096, 100000), 0)
	sStart := rigid(8, 12, 6)
	sSpec, err := mcsim.SpecFor(core.Searching, sStart, 256, 4096, 42)
	if err != nil {
		panic(err)
	}
	sEng, err := mcsim.New(sSpec, 1)
	if err != nil {
		panic(err)
	}
	if _, err := sEng.Simulate(); err != nil {
		panic(err)
	}
	add("MCSimSearch/n=12/k=6/lanes=256/workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sEng.Simulate(); err != nil {
				b.Fatal(err)
			}
		}
	})

	return fams
}

// runFamily benchmarks one family `repeats` times and aggregates: the
// reported ns/op is the median run (robust against one-off scheduler
// hiccups), the min/max/stddev record the spread for benchdiff's
// jitter-vs-regression call. Alloc stats are taken from the median run.
func runFamily(f family, repeats int) result {
	type run struct {
		ns     float64
		iters  int
		allocs int64
		bytes  int64
	}
	runs := make([]run, 0, repeats)
	for i := 0; i < repeats; i++ {
		r := testing.Benchmark(f.fn)
		runs = append(runs, run{
			ns:     float64(r.T.Nanoseconds()) / float64(r.N),
			iters:  r.N,
			allocs: r.AllocsPerOp(),
			bytes:  r.AllocedBytesPerOp(),
		})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].ns < runs[j].ns })
	// Lower-middle for even counts: on shared runners noise is one-sided
	// (slowdowns, not speedups), so the faster middle run is the better
	// point estimate — with -repeats 2 this reports min, not max.
	med := runs[(len(runs)-1)/2]
	mean := 0.0
	for _, r := range runs {
		mean += r.ns
	}
	mean /= float64(len(runs))
	variance := 0.0
	for _, r := range runs {
		variance += (r.ns - mean) * (r.ns - mean)
	}
	variance /= float64(len(runs))
	return result{
		Name:        f.name,
		Iterations:  med.iters,
		NsPerOp:     med.ns,
		AllocsPerOp: med.allocs,
		BytesPerOp:  med.bytes,
		Repeats:     len(runs),
		NsPerOpMin:  runs[0].ns,
		NsPerOpMax:  runs[len(runs)-1].ns,
		NsPerOpStdd: math.Sqrt(variance),
	}
}

func main() {
	date := time.Now().Format("2006-01-02")
	out := flag.String("out", "BENCH_"+date+".json", "output JSON path")
	filter := flag.String("filter", "", "only run families whose name contains this substring")
	repeats := flag.Int("repeats", 3, "independent runs per family (median reported; min/max/stddev recorded for benchdiff's noise gate)")
	flag.Parse()
	if *repeats < 1 {
		*repeats = 1
	}

	rep := report{
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Repeats:   *repeats,
	}
	for _, f := range families() {
		if *filter != "" && !strings.Contains(f.name, *filter) {
			continue
		}
		res := runFamily(f, *repeats)
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Printf("%-32s %12.1f ns/op %8d allocs/op %10d B/op  (±%.0f over %d runs)\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, res.NsPerOpStdd, res.Repeats)
	}

	// Reference tree-level counters (skipped under -filter, which is
	// used for quick timing passes).
	if *filter == "" {
		for _, tc := range []struct{ n, k int }{{7, 4}, {8, 5}, {9, 4}} {
			s := feasibility.NewSolver(tc.n, tc.k)
			s.Workers = 1
			res, err := s.Solve()
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			sc := solverCounters{
				Case:              fmt.Sprintf("n=%d/k=%d", tc.n, tc.k),
				TablesExplored:    res.TablesExplored,
				TablesMemoHit:     res.TablesMemoHit,
				BranchesDominated: res.BranchesDominated,
				BranchesReused:    res.BranchesReused,
				StatesReexpanded:  res.StatesReexpanded,
			}
			rep.SolverCounters = append(rep.SolverCounters, sc)
			fmt.Printf("counters %-12s tables=%d memoHit=%d dominated=%d reused=%d reexpanded=%d\n",
				sc.Case, sc.TablesExplored, sc.TablesMemoHit, sc.BranchesDominated, sc.BranchesReused, sc.StatesReexpanded)
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	// Temp-file + rename: a crash (or full disk) mid-write must never
	// leave a truncated report where benchdiff — or a later bench run's
	// baseline lookup — would read it as the real thing.
	if err := writeFileAtomic(*out, buf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}

func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
