// Command benchmark is this repository's end-to-end benchmark: it drives
// the verdict service (service.Handler behind an in-process HTTP
// server), the cmd/drain binary, drainpool.Run and the Monte Carlo
// simulator with seeded workloads, checks every answer against
// testdata/verdicts.json or the paper's guarantees, and prints every
// metric by name and unit. A traced run (-trace 1) attributes the same
// workload's time to the repository's layers.
//
// Usage, from the repository root (benchmark/run.sh builds the
// benchmark and cmd/drain first):
//
//	bash benchmark/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all                    # every workload
//	bash benchmark/run.sh --workload drain-single --repeat 5  # median and quartiles
//	bash benchmark/run.sh -regen                            # rewrite testdata/verdicts.json
//
// Each workload runs in a child process (this binary re-executed) with
// its own scratch directory, so memory and GC state are per workload;
// the parent reports the child's peak RSS. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks the re-executed child process.
const childEnv = "RINGBENCH_CHILD"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	regen    bool
	smoke    bool
	drainBin string
	workDir  string
	traceOut string
	pkgDir   string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "seconds each run measures")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	fs.IntVar(&o.repeat, "repeat", 1, "runs per workload with seeds seed..seed+N-1; prints each metric's median and quartiles")
	fs.BoolVar(&o.regen, "regen", false, "regenerate testdata/verdicts.json by direct solves, then exit")
	fs.BoolVar(&o.smoke, "smoke", false, "run every workload on a few small inputs (the package test's mode)")
	fs.StringVar(&o.drainBin, "drain-bin", ".bench_build/bin/drain", "the cmd/drain binary")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build/work", "parent of the runs' scratch directories")
	fs.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans (default <work-dir>/trace-<workload>-<seed>.json)")
	fs.StringVar(&o.pkgDir, "pkg-dir", "benchmark", "directory of this package (holds testdata/)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var errs []error
	if fs.NArg() > 0 {
		errs = append(errs, fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if _, ok := findWorkload(o.workload); !ok && o.workload != "all" {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		errs = append(errs, fmt.Errorf("unknown -workload %q (want all, %s)", o.workload, strings.Join(names, ", ")))
	}
	if o.trace != 0 && o.trace != 1 {
		errs = append(errs, fmt.Errorf("-trace %d: want 0 or 1", o.trace))
	}
	if !(o.seconds > 0) || o.seconds > 600 {
		errs = append(errs, fmt.Errorf("-seconds %v out of range (0, 600]", o.seconds))
	}
	if o.repeat < 1 {
		errs = append(errs, fmt.Errorf("-repeat %d below minimum 1", o.repeat))
	}
	return o, errors.Join(errs...)
}

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain runs one workload and prints its result as one JSON line.
func childMain(args []string) int {
	opts, err := parseFlags(args, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	res, err := runChild(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", opts.workload, err)
		return 1
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s\n", buf)
	return 0
}

// result is the JSON object the last line of output carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "benchmark: invalid flags:", err)
		}
		return 2
	}
	if opts.regen {
		if err := regenerate(opts.pkgDir); err != nil {
			fmt.Fprintln(stderr, "benchmark: regenerating verdicts:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", filepath.Join(opts.pkgDir, verdictsPath))
		return 0
	}
	// Fail before any run when the inputs cannot be read.
	if _, err := loadExpectations(opts.pkgDir); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	names := []string{opts.workload}
	if opts.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	final := map[string]result{}
	for _, name := range names {
		o := opts
		o.workload = name
		res, err := runRepeated(o, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		final[name] = res
		ok = ok && res.Correct && res.Failed == 0
	}
	var line []byte
	if len(names) == 1 {
		line, err = json.Marshal(final[names[0]])
	} else {
		line, err = json.Marshal(final)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !ok {
		fmt.Fprintln(stderr, "benchmark: output checks failed (see failures above)")
		return 1
	}
	return 0
}

// runRepeated runs one workload opts.repeat times with consecutive
// seeds; with more than one run it prints each metric's median and
// quartiles and returns the medians.
func runRepeated(opts options, stdout, stderr io.Writer) (result, error) {
	var runs []result
	for r := 0; r < opts.repeat; r++ {
		o := opts
		o.seed = opts.seed + int64(r)
		res, notes, err := runOnce(o, stderr)
		if err != nil {
			return result{}, err
		}
		printRun(stdout, o, res, notes)
		runs = append(runs, res)
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	agg := result{Correct: true, Metrics: map[string]metric{}}
	fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d\n", opts.workload, len(runs), opts.seed, opts.seed+int64(len(runs)-1))
	fmt.Fprintf(stdout, "  %-40s %14s %14s %14s %9s\n", "metric", "median", "q1", "q3", "iqr/med")
	for _, name := range sortedNames(runs[0].Metrics) {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[name].Value
		}
		q1, _, q3 := quartiles(vals)
		med := median(vals)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		unit := runs[0].Metrics[name].Unit
		fmt.Fprintf(stdout, "  %-40s %14.6g %14.6g %14.6g %8.1f%%  %s\n", name, med, q1, q3, 100*spread, unit)
		agg.Metrics[name] = metric{med, unit}
	}
	for _, r := range runs {
		agg.Correct = agg.Correct && r.Correct
		agg.Attempted += r.Attempted
		agg.Failed += r.Failed
	}
	return agg, nil
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runOnce re-executes this binary as the workload's child process and
// adds the child's peak resident set (its own or its children's,
// whichever is larger) to an untraced run's metrics.
func runOnce(opts options, stderr io.Writer) (result, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	traceOut := opts.traceOut
	if opts.trace == 1 && traceOut == "" {
		traceOut = filepath.Join(opts.workDir, fmt.Sprintf("trace-%s-%d.json", opts.workload, opts.seed))
	}
	args := []string{
		"-workload", opts.workload,
		"-seed", strconv.FormatInt(opts.seed, 10),
		"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(opts.trace),
		"-drain-bin", opts.drainBin,
		"-work-dir", opts.workDir,
		"-trace-out", traceOut,
		"-pkg-dir", opts.pkgDir,
	}
	if opts.smoke {
		args = append(args, "-smoke")
	}
	// A run measures for opts.seconds plus set-ups and, when traced, the
	// replay; anything far beyond that is a hang.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(3*opts.seconds*float64(time.Second))+120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return result{}, nil, fmt.Errorf("workload process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var cr childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr); err != nil {
		return result{}, nil, fmt.Errorf("parsing the workload process's result: %w", err)
	}
	if opts.trace == 0 {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return result{}, nil, errors.New("no resource usage for the workload process")
		}
		cr.Metrics["max_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"} // Linux reports KiB
	}
	return cr.result, cr.Notes, nil
}

// printRun lists one run's metrics with their units, end-to-end metrics
// first in their fixed order, and the run's notes.
func printRun(w io.Writer, opts options, res result, notes []string) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%d: attempted %d, failed %d, correct %v\n",
		opts.workload, opts.seed, opts.seconds, opts.trace, res.Attempted, res.Failed, res.Correct)
	printed := map[string]bool{}
	for _, m := range endToEnd {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", m.name, v.Value, v.Unit)
			printed[m.name] = true
		}
	}
	for _, name := range sortedNames(res.Metrics) {
		if !printed[name] {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
	}
	for _, n := range notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
