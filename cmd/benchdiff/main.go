// Command benchdiff compares two BENCH_<date>.json reports produced by
// cmd/bench and prints per-benchmark ns/op and allocs/op deltas, so the
// performance trajectory across PRs is a one-command diff:
//
//	go run ./cmd/benchdiff BENCH_2026-07-29.json BENCH_2026-07-30.json
//
// Benchmarks present in only one report are listed as added/removed;
// when the reports share no benchmark name at all, benchdiff exits 2.
// The exit status is the regression gate: benchdiff exits nonzero when
// any benchmark common to both reports slowed down by more than
// -threshold (default 2×) in ns/op. The gate is noise-aware: when both
// reports carry repeat-run spreads (cmd/bench -repeats ≥ 2, recorded as
// ns_per_op_min/max), a slowdown only counts when the runs' ranges are
// disjoint beyond the threshold — the new benchmark's *fastest* run
// must exceed threshold × the old benchmark's *slowest* run. Point
// ratios that exceed the threshold inside overlapping noise bands are
// reported as jitter, not failures. Reports without spread data fall
// back to comparing point estimates, preserving the old behavior.
// Sub-microsecond rows (below -min-ns, default 1000) are reported but
// never gated: a 2.7 ns cached lookup swings past any ratio threshold
// on a CPU frequency shift alone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Repeats     int     `json:"repeats,omitempty"`
	NsPerOpMin  float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64 `json:"ns_per_op_max,omitempty"`
	NsPerOpStdd float64 `json:"ns_per_op_stddev,omitempty"`
}

type report struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	Repeats    int      `json:"repeats,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

func load(path string) (report, error) {
	var rep report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if len(buf) == 0 {
		return rep, fmt.Errorf("%s: empty report (truncated write?)", path)
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: corrupt report: %w", path, err)
	}
	// A parseable report with no benchmark rows is not a baseline to
	// gate against — diffing it would "pass" with every row added or
	// removed. Most likely a truncated or hand-mangled file that still
	// happened to parse.
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("%s: report contains no benchmarks (truncated or not a cmd/bench report)", path)
	}
	return rep, nil
}

// spread returns the benchmark's ns/op range, degenerating to the point
// estimate for single-run (or pre-variance-format) results.
func spread(r result) (lo, hi float64) {
	if r.Repeats >= 2 && r.NsPerOpMin > 0 && r.NsPerOpMax >= r.NsPerOpMin {
		return r.NsPerOpMin, r.NsPerOpMax
	}
	return r.NsPerOp, r.NsPerOp
}

func main() {
	threshold := flag.Float64("threshold", 2.0, "fail on ns/op regressions beyond this factor")
	minNs := flag.Float64("min-ns", 1000, "report but never fail benchmarks whose old ns/op is below this floor (sub-microsecond rows are noise-dominated)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 2.0] OLD.json NEW.json")
		os.Exit(2)
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	oldBy := make(map[string]result, len(oldRep.Benchmarks))
	for _, r := range oldRep.Benchmarks {
		oldBy[r.Name] = r
	}

	fmt.Printf("benchdiff %s (%s) -> %s (%s)\n", flag.Arg(0), oldRep.Date, flag.Arg(1), newRep.Date)
	fmt.Printf("%-52s %14s %14s %8s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "old all/op", "new all/op")
	compared := 0
	regressions := 0
	jitter := 0
	floored := 0
	for _, nw := range newRep.Benchmarks {
		old, ok := oldBy[nw.Name]
		if !ok {
			fmt.Printf("%-52s %14s %14.1f %8s %9s %9d  (added)\n", nw.Name, "-", nw.NsPerOp, "-", "-", nw.AllocsPerOp)
			continue
		}
		delete(oldBy, nw.Name)
		compared++
		ratio := 0.0
		if old.NsPerOp > 0 {
			ratio = nw.NsPerOp / old.NsPerOp
		}
		flagStr := ""
		if ratio > *threshold {
			// Conservative ratio: fastest new run vs slowest old run.
			// Only a slowdown that survives both spreads is a regression.
			_, oldHi := spread(old)
			newLo, _ := spread(nw)
			switch {
			case old.NsPerOp < *minNs && nw.NsPerOp < *minNs:
				// Nanosecond-scale rows (a cached lookup, a bitmask op)
				// swing past any ratio threshold on CPU frequency or
				// noisy-neighbor shifts alone; report, never gate. Both
				// sides must sit below the floor — a sub-floor row that
				// regressed past it is a real slowdown and still gates.
				flagStr = "  (below gate floor)"
				floored++
			case oldHi > 0 && newLo/oldHi > *threshold:
				flagStr = "  << REGRESSION"
				regressions++
			default:
				flagStr = "  (jitter: spreads overlap)"
				jitter++
			}
		}
		fmt.Printf("%-52s %14.1f %14.1f %7.2fx %9d %9d%s\n",
			nw.Name, old.NsPerOp, nw.NsPerOp, ratio, old.AllocsPerOp, nw.AllocsPerOp, flagStr)
	}
	removed := make([]string, 0, len(oldBy))
	for name := range oldBy {
		removed = append(removed, name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		old := oldBy[name]
		fmt.Printf("%-52s %14.1f %14s %8s %9d %9s  (removed)\n", name, old.NsPerOp, "-", "-", old.AllocsPerOp, "-")
	}
	// With no row name in common every row is added or removed and
	// nothing was gated; passing would turn a renaming slip into a
	// silent no-op gate.
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: the two reports have no benchmark name in common; nothing was compared")
		os.Exit(2)
	}
	if jitter > 0 {
		fmt.Printf("%d benchmark(s) beyond %.2fx on point estimates but within run spread (not failed)\n", jitter, *threshold)
	}
	if floored > 0 {
		fmt.Printf("%d sub-%.0fns benchmark(s) beyond %.2fx excluded by the gate floor (not failed)\n", floored, *minNs, *threshold)
	}
	if regressions > 0 {
		fmt.Printf("%d benchmark(s) regressed beyond %.2fx\n", regressions, *threshold)
		os.Exit(1)
	}
	fmt.Println("no regressions beyond threshold")
}
