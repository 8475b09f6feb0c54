// Command bench runs the repo's benchmark families and emits a
// machine-readable BENCH_<date>.json, so the performance trajectory of
// the hot paths (configuration algebra, Align planning, Look/snapshot
// construction, enumeration, the impossibility solver) is tracked
// across PRs.
//
// The families are defined once, in the root package's bench_test.go.
// bench runs them with
//
//	go test -run '^$' -bench <filter> -benchmem -count <repeats> ringrobots
//
// parses the standard benchmark lines and aggregates the -count runs of
// each row. -filter is a `go test -bench` regexp (it used to be a
// substring match); the default runs every family.
//
// Usage:
//
//	go run ./cmd/bench            # writes BENCH_<yyyy-mm-dd>.json
//	go run ./cmd/bench -out f.json -filter Align
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ringrobots/internal/faultfs"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
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
	// impossibility solves (explored tables, dominated branches, …) so the pruning trajectory is tracked alongside the
	// timing rows. Ignored by cmd/benchdiff (which gates only ns/op).
	SolverCounters []solverCounters `json:"solver_counters,omitempty"`
}

// solverCounters is one reference solve's tree-level statistics.
type solverCounters struct {
	Case              string `json:"case"`
	TablesExplored    int    `json:"tables_explored"`
	BranchesDominated int64  `json:"branches_dominated"`
	BranchesReused    int64  `json:"branches_reused"`
	StatesReexpanded  int64  `json:"states_reexpanded"`
}

// run is one -count run of one benchmark row.
type run struct {
	ns     float64
	iters  int
	allocs int64
	bytes  int64
}

// procsSuffix is the -<GOMAXPROCS> tag go test appends to every name
// when GOMAXPROCS > 1.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench -benchmem` output and returns one
// aggregated row per benchmark, in first-seen order. A result line is
// "Benchmark<name>[-procs] <N> (<value> <unit>)…"; only ns/op, B/op and
// allocs/op are read (custom metrics such as steps/sec are skipped), and
// every other line (goos:, pkg:, cpu:, PASS, ok, logs) is ignored.
func parseBench(r io.Reader) ([]result, error) {
	var names []string
	runs := map[string][]run{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.Atoi(f[1])
		if err != nil {
			continue // a name printed ahead of a failure or log line
		}
		name := procsSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")
		rn := run{iters: iters, ns: -1}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", f[0], f[i])
			}
			switch f[i+1] {
			case "ns/op":
				rn.ns = v
			case "B/op":
				rn.bytes = int64(v)
			case "allocs/op":
				rn.allocs = int64(v)
			}
		}
		if rn.ns < 0 {
			return nil, fmt.Errorf("%s: no ns/op in %q", f[0], sc.Text())
		}
		if _, seen := runs[name]; !seen {
			names = append(names, name)
		}
		runs[name] = append(runs[name], rn)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]result, 0, len(names))
	for _, name := range names {
		out = append(out, aggregate(name, runs[name]))
	}
	return out, nil
}

// aggregate folds one row's repeated runs: the reported ns/op is the
// median run (robust against one-off scheduler hiccups), the
// min/max/stddev record the spread for benchdiff's jitter-vs-regression
// call. Iterations and alloc stats are taken from the median run.
func aggregate(name string, runs []run) result {
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
		Name:        name,
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	date := time.Now().Format("2006-01-02")
	out := flag.String("out", "BENCH_"+date+".json", "output JSON path")
	filter := flag.String("filter", "", "go test -bench regexp selecting the families to run (default: all)")
	repeats := flag.Int("repeats", 3, "independent runs per family, passed as go test -count (median reported; min/max/stddev recorded for benchdiff's noise gate)")
	flag.Parse()
	if *repeats < 1 {
		*repeats = 1
	}
	bench := *filter
	if bench == "" {
		bench = "."
	}

	// The import path, not ".", so bench works from any directory in
	// the module. The output is echoed live and parsed once go test is
	// done; a failing benchmark fails go test, and no report is written.
	var buf bytes.Buffer
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", bench, "-benchmem",
		"-count", strconv.Itoa(*repeats), "ringrobots")
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fail(fmt.Errorf("go test: %w", err))
	}
	rows, err := parseBench(&buf)
	if err != nil {
		fail(err)
	}

	rep := report{
		Date:       date,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Repeats:    *repeats,
		Benchmarks: rows,
	}

	// Reference tree-level counters (skipped under -filter, which is
	// used for quick timing passes).
	if *filter == "" {
		for _, tc := range []struct{ n, k int }{{7, 4}, {8, 5}, {9, 4}} {
			s := feasibility.NewSolver(tc.n, tc.k)
			s.Workers = 1
			res, err := s.Solve()
			if err != nil {
				fail(err)
			}
			sc := solverCounters{
				Case:              fmt.Sprintf("n=%d/k=%d", tc.n, tc.k),
				TablesExplored:    res.TablesExplored,
				BranchesDominated: res.BranchesDominated,
				BranchesReused:    res.BranchesReused,
				StatesReexpanded:  res.StatesReexpanded,
			}
			rep.SolverCounters = append(rep.SolverCounters, sc)
			fmt.Printf("counters %-12s tables=%d dominated=%d reused=%d reexpanded=%d\n",
				sc.Case, sc.TablesExplored, sc.BranchesDominated, sc.BranchesReused, sc.StatesReexpanded)
		}
	}

	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	js = append(js, '\n')
	// Temp-file + rename: a crash (or full disk) mid-write must never
	// leave a truncated report where benchdiff — or a later bench run's
	// baseline lookup — would read it as the real thing.
	if _, err := journal.WriteFileAtomic(faultfs.OS{}, *out, js); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s (%d rows)\n", *out, len(rep.Benchmarks))
}
