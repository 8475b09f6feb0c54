package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// clients is the closed-loop client count of the HTTP workloads'
// measured runs and the worker count of the pool and the simulator: the
// benchmark box has two CPUs, and load comes from one process with at
// most that many connections or threads.
const clients = 2

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics an untraced run reports, in
// print order. max_rss_mb is measured by the parent process.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// layers are this repo's modules as the traced run attributes time to
// them; each gets a self_pct.<layer> metric.
var layers = []string{"http", "service", "store", "solver", "checkpoint", "journal", "drainpool", "workers", "mcsim"}

// perLayer lists the traced run's metrics after the self-time shares.
var perLayer = []struct{ name, unit string }{
	{"unattributed_pct", "%"},
	{"trace_overhead_pct", "%"},
	{"service.cache_hits_per_op", "count/op"},
	{"service.cache_misses_per_op", "count/op"},
	{"service.deduped_per_op", "count/op"},
	{"service.solves_started_per_op", "count/op"},
	{"service.suspended_per_op", "count/op"},
	{"service.resumed_drains_per_op", "count/op"},
	{"service.checkpoints_journaled_per_op", "count/op"},
	{"service.rejected_per_op", "count/op"},
	{"service.shed_per_op", "count/op"},
	{"store.writes_per_op", "count/op"},
	{"store.write_bytes_per_op", "B/op"},
	{"store.fsyncs_per_op", "count/op"},
	{"store.renames_per_op", "count/op"},
	{"store.bytes_per_verdict", "B"},
	{"solver.units_per_op", "count/op"},
	{"solver.units_per_s", "1/s"},
	{"solver.tables_per_op", "count/op"},
	{"solver.states_interned_per_op", "count/op"},
	{"solver.states_reexpanded_per_op", "count/op"},
	{"solver.branches_reused_per_op", "count/op"},
	{"solver.branches_dominated_per_op", "count/op"},
	{"solver.tables_memo_hit_per_op", "count/op"},
	{"checkpoint.count_per_op", "count/op"},
	{"checkpoint.bytes_avg", "B"},
	{"drainpool.generations_per_op", "count/op"},
	{"drainpool.shard_attempts_per_op", "count/op"},
	{"drainpool.tables_per_op", "count/op"},
	{"drain.child_cpu_pct", "%"},
	{"mcsim.ticks_per_op", "count/op"},
	{"mcsim.moves_per_op", "count/op"},
	{"mcsim.warm_ticks_per_s", "1/s"},
	{"mcsim.cold_warm_ratio", "ratio"},
}

// runner runs one workload. A run is a sequence of passes; each
// pass sets up from scratch, runs the workload's fixed operations, and
// tears down, so every pass does the same work whatever the seed.
type runner interface {
	// setup prepares pass i; its wall time is the pass's set-up time.
	setup(i int) error
	// work runs pass i's operations, recording each through bench.op.
	work(i int) error
	// teardown releases what setup made.
	teardown() error
	// attribute splits a traced phase's end-to-end time over the layers,
	// replaying the workload's inputs where a layer cannot be timed from
	// outside the program.
	attribute(a *attribution) error
}

type workload struct {
	name string
	new  func(b *bench) (runner, error)
}

// workloads is the registry, in run order for -workload all. Why each
// exists is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{"serve-hit", newServeHit},
	{"serve-cold", newServeCold},
	{"serve-resume", newServeResume},
	{"drain-single", newDrainSingle},
	{"drain-pool", newDrainPool},
	{"mcsim-sweep", newMcsimSweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// maxSamples bounds the latencies a phase keeps. Beyond it the phase
// keeps a uniform random sample (reservoir sampling), so the benchmark's
// own memory stays fixed and out of max_rss_mb's variation; only
// serve-hit completes more operations than this in a run.
const maxSamples = 1 << 17

// phase is what one measured phase of a run recorded.
type phase struct {
	setups    []time.Duration
	passWork  []time.Duration
	work      time.Duration // summed pass work time
	ok        int64         // successful operations
	latSum    time.Duration // their summed latency
	lats      []time.Duration
	rng       *rand.Rand // picks reservoir replacements
	attempted int64
	failed    int64
	wrong     int64
}

func newPhase(seed int64) *phase {
	return &phase{lats: make([]time.Duration, 0, maxSamples), rng: rand.New(rand.NewSource(seed))}
}

// meanLat is the mean latency of the phase's successful operations.
func (ph *phase) meanLat() float64 {
	if ph.ok == 0 {
		return 0
	}
	return float64(ph.latSum) / float64(ph.ok)
}

// bench is a workload run inside the child process.
type bench struct {
	opts options
	exp  *expectations
	dir  string  // the run's scratch directory, removed at the end
	tr   *tracer // non-nil while a traced phase runs
	// clients is the HTTP client count: clients in an end-to-end run, 1
	// in a traced run, where a request's layer times can then add up to
	// its latency (with two clients a request also waits for the other
	// client's solve to release the store, which no span here can see).
	clients int

	mu       sync.Mutex
	cur      *phase
	failures []string
}

// op records one completed operation.
func (b *bench) op(lat time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ph := b.cur
	ph.attempted++
	ph.ok++
	ph.latSum += lat
	if len(ph.lats) < maxSamples {
		ph.lats = append(ph.lats, lat)
	} else if j := ph.rng.Int63n(ph.ok); j < maxSamples {
		ph.lats[j] = lat
	}
}

// fail records one failed operation; wrong marks an incorrect answer
// (as opposed to a refused or errored request).
func (b *bench) fail(wrong bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cur.attempted++
	b.cur.failed++
	if wrong {
		b.cur.wrong++
	}
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// passes runs passes for about budget: a new pass starts only if the
// previous pass's set-up and work would still fit, and at least one
// pass always runs.
func (b *bench) passes(r runner, budget time.Duration) (*phase, error) {
	ph := newPhase(b.opts.seed)
	b.mu.Lock()
	b.cur = ph
	b.mu.Unlock()
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last <= budget; i++ {
		t0 := time.Now()
		err := r.setup(i)
		setup := time.Since(t0)
		if err == nil {
			// Every pass starts from a collected heap, so neither its
			// timings nor the peak RSS depend on the previous pass's garbage.
			runtime.GC()
			if b.tr != nil {
				b.tr.start()
			}
			t1 := time.Now()
			err = r.work(i)
			ph.passWork = append(ph.passWork, time.Since(t1))
			ph.work += ph.passWork[i]
			if b.tr != nil {
				b.tr.on.Store(false)
			}
		}
		if terr := r.teardown(); err == nil {
			err = terr
		}
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		ph.setups = append(ph.setups, setup)
		last = time.Since(t0)
	}
	// Workloads whose pass fills most of the budget still report the
	// median of several set-ups.
	for len(ph.setups) < minSetups && !b.opts.smoke {
		t0 := time.Now()
		err := r.setup(len(ph.setups))
		setup := time.Since(t0)
		if terr := r.teardown(); err == nil {
			err = terr
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(ph.setups), err)
		}
		ph.setups = append(ph.setups, setup)
	}
	return ph, nil
}

// minSetups is the fewest set-ups a measured phase times: a service's
// set-up takes well under a millisecond, so one sample is mostly noise.
const minSetups = 15

// childResult is what the child process reports to the parent: the
// result plus human-readable notes.
type childResult struct {
	result
	Notes []string `json:"notes"`
}

// runChild runs one workload in this process and reports it.
func runChild(opts options) (*childResult, error) {
	w, ok := findWorkload(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	exp, err := loadExpectations(opts.pkgDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{opts: opts, exp: exp, dir: dir, clients: clients}
	if opts.trace == 1 {
		b.clients = 1
	}
	r, err := w.new(b)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(opts.seconds * float64(time.Second))
	res := &childResult{result: result{Metrics: map[string]metric{}}}

	if opts.trace == 0 {
		ph, err := b.passes(r, budget)
		if err != nil {
			return nil, err
		}
		b.endToEnd(ph, res)
		res.Attempted, res.Failed = ph.attempted, ph.failed
		res.Correct = ph.wrong == 0
	} else {
		// Untraced first half, traced second half: the difference in
		// mean operation time is the tracing overhead.
		base, err := b.passes(r, budget/2)
		if err != nil {
			return nil, err
		}
		b.tr = newTracer()
		traced, err := b.passes(r, budget/2)
		if err != nil {
			return nil, err
		}
		a := &attribution{b: b, ph: traced, e2e: traced.latSum, self: map[string]time.Duration{}, counts: map[string]float64{}}
		if err := r.attribute(a); err != nil {
			return nil, err
		}
		a.report(base, res)
		if opts.traceOut != "" {
			if err := b.tr.write(opts.traceOut, w.name, opts.seed, a.self, a.e2e); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
			res.Notes = append(res.Notes, "trace written to "+opts.traceOut)
		}
		res.Attempted = base.attempted + traced.attempted
		res.Failed = base.failed + traced.failed
		res.Correct = base.wrong+traced.wrong == 0
	}
	res.Notes = append(res.Notes, b.failures...)
	return res, nil
}

// endToEnd fills the untraced metrics the child can measure.
func (b *bench) endToEnd(ph *phase, res *childResult) {
	q := tailQuantile(int(ph.ok))
	res.Metrics["setup_s"] = metric{medianDuration(ph.setups).Seconds(), "s"}
	res.Metrics["ops_per_s"] = metric{float64(ph.ok) / ph.work.Seconds(), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{ms(percentile(ph.lats, 0.5)), "ms"}
	res.Metrics["latency_tail_ms"] = metric{ms(percentile(ph.lats, q)), "ms"}
	passes := make([]string, len(ph.passWork))
	for i, d := range ph.passWork {
		passes[i] = fmt.Sprintf("%.3f", d.Seconds())
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d set-ups, %d operations (%d latency samples kept), tail = p%.1f; pass work s: %s",
		len(ph.setups), ph.ok, len(ph.lats), 100*q, strings.Join(passes, " ")))
}

// attribution is a traced phase's end-to-end time split over layers.
type attribution struct {
	b      *bench
	ph     *phase
	e2e    time.Duration            // summed operation time of the traced phase
	self   map[string]time.Duration // layer → self time
	counts map[string]float64       // per-layer counter metrics
	notes  []string
}

// ops is the number of operations the traced phase completed.
func (a *attribution) ops() float64 { return float64(a.ph.ok) }

// report turns the attribution into the per-layer metrics.
func (a *attribution) report(base *phase, res *childResult) {
	var sum time.Duration
	for _, l := range layers {
		d := a.self[l]
		sum += d
		res.Metrics["self_pct."+l] = metric{pct(d, a.e2e), "%"}
	}
	a.counts["unattributed_pct"] = pct(a.e2e-sum, a.e2e)
	a.counts["trace_overhead_pct"] = 100 * (a.ph.meanLat()/base.meanLat() - 1)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{a.counts[m.name], m.unit}
	}
	names := make([]string, 0, len(a.self))
	for l := range a.self {
		names = append(names, l)
	}
	sort.Strings(names)
	line := fmt.Sprintf("traced: %d ops, end-to-end %.1f ms;", a.ph.ok, ms(a.e2e))
	for _, l := range names {
		line += fmt.Sprintf(" %s %.1f ms", l, ms(a.self[l]))
	}
	res.Notes = append(append(res.Notes, line), a.notes...)
}

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
