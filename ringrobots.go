// Package ringrobots is a production-quality Go implementation of
//
//	D'Angelo, Di Stefano, Navarra, Nisse, Suchan.
//	"A unified approach for different tasks on rings in robot-based
//	computing systems." IPPS 2013 (INRIA RR-8013).
//
// It provides the min-CORDA model of autonomous robots on anonymous
// rings (asynchronous Look-Compute-Move cycles, oblivious anonymous
// disoriented robots), the paper's unified two-phase algorithms for
// exclusive perpetual exploration, exclusive perpetual graph searching
// and gathering, verifiers certifying the perpetual properties, and a
// game solver mechanizing the paper's impossibility results.
//
// # Quick start
//
//	start, _ := ringrobots.RandomRigidConfig(rand.New(rand.NewSource(1)), 12, 6)
//	alg, _ := ringrobots.NewAlgorithm(ringrobots.Gathering, 12, 6)
//	world, _ := ringrobots.NewWorld(ringrobots.Gathering, start)
//	runner := ringrobots.NewRunner(world, alg)
//	runner.RunUntil((*ringrobots.World).Gathered, 100000)
//
// The facade re-exports the library's stable surface; the full API lives
// in the internal packages and is exercised by the examples/ directory.
package ringrobots

import (
	"math/rand"

	"ringrobots/internal/align"
	"ringrobots/internal/config"
	"ringrobots/internal/corda"
	"ringrobots/internal/core"
	"ringrobots/internal/enumerate"
	"ringrobots/internal/explore"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/gather"
	"ringrobots/internal/mcsim"
	"ringrobots/internal/search"
)

// Task identifies one of the paper's three problems.
type Task = core.Task

// The three tasks of the unified approach.
const (
	Exploration = core.Exploration
	Searching   = core.Searching
	Gathering   = core.Gathering
)

// Config is a configuration: the set of occupied nodes of an anonymous
// ring (robot multiplicities live in the World).
type Config = config.Config

// View is a cyclic sequence of interval lengths as perceived by a robot.
type View = config.View

// CanonKey is the compact comparable canonical identity of a
// configuration class (equal keys ⇔ equivalent up to rotation and
// reflection). Use Config.CanonKey() to obtain one; it replaces string
// canonical keys in deduplication maps.
type CanonKey = config.CanonKey

// World is the simulator's ground truth of robot positions.
type World = corda.World

// Snapshot is what one robot perceives during Look.
type Snapshot = corda.Snapshot

// Decision is the outcome of a robot's Compute phase.
type Decision = corda.Decision

// Decisions.
const (
	Stay     = corda.Stay
	TowardLo = corda.TowardLo
	TowardHi = corda.TowardHi
	Either   = corda.Either
)

// Algorithm is an oblivious per-robot protocol.
type Algorithm = corda.Algorithm

// Runner executes atomic Look-Compute-Move cycles.
type Runner = corda.Runner

// AsyncRunner executes under full asynchrony with pending moves.
type AsyncRunner = corda.AsyncRunner

// Verdict classifies parameters in the feasibility characterization.
type Verdict = core.Verdict

// Verdicts.
const (
	Solvable     = core.Solvable
	Impossible   = core.Impossible
	Open         = core.Open
	NoRigidStart = core.NoRigidStart
	Degenerate   = core.Degenerate
)

// NewConfig builds a configuration from occupied nodes.
func NewConfig(n int, occupied ...int) (Config, error) { return config.New(n, occupied...) }

// CStar returns the distinguished configuration C* (§2) targeted by the
// common first phase of all three algorithms.
func CStar(n, k int) (Config, error) { return config.CStar(n, k) }

// RandomRigidConfig draws a uniformly random rigid exclusive
// configuration — a valid starting point for every task.
func RandomRigidConfig(rng *rand.Rand, n, k int) (Config, error) {
	return enumerate.RandomRigid(rng, n, k, 100000)
}

// RigidConfigs enumerates every rigid exclusive configuration of k robots
// on an n-node ring up to rotation and reflection.
func RigidConfigs(n, k int) ([]Config, error) { return enumerate.RigidClasses(n, k) }

// NewAlgorithm returns the paper's algorithm for the task, validating the
// solvable parameter range (Theorems 6–8).
func NewAlgorithm(task Task, n, k int) (Algorithm, error) { return core.New(task, n, k) }

// NewWorld builds the world matching the task's capability model from a
// rigid starting configuration.
func NewWorld(task Task, c Config) (*World, error) { return core.NewWorld(task, c) }

// NewRunner wires the deterministic runner: step i activates robot
// i mod k through one atomic Look-Compute-Move cycle, and every Either
// decision goes clockwise.
func NewRunner(w *World, alg Algorithm) *Runner { return corda.NewRunner(w, alg) }

// NewAsyncRunner wires a fully asynchronous runner with the given
// adversary.
func NewAsyncRunner(w *World, alg Algorithm, sched corda.AsyncScheduler) *AsyncRunner {
	return corda.NewAsyncRunner(w, alg, sched)
}

// NewRandomAsyncAdversary returns a seeded asynchronous adversary that
// holds pending moves with the given bias.
func NewRandomAsyncAdversary(seed int64, holdBias float64) corda.AsyncScheduler {
	return corda.NewRandomAsync(seed, holdBias)
}

// AlignTo runs the common phase 1 (Algorithm Align, §3) on an exclusive
// world until C* is reached, returning the number of moves.
func AlignTo(w *World, maxSteps int) (int, error) { return align.Run(w, maxSteps) }

// Gather runs the complete gathering algorithm to termination.
func Gather(w *World, maxSteps int) (int, error) { return gather.Run(w, maxSteps) }

// VerifyPerpetual certifies perpetual searching and exploration from a
// rigid start (see search.Verify for the methodology).
func VerifyPerpetual(c Config, alg Algorithm, budget int) (search.Report, error) {
	return search.Verify(c, alg, budget)
}

// CharacterizeSearching reproduces the paper's feasibility
// characterization of exclusive perpetual graph searching for (n, k).
func CharacterizeSearching(n, k int) (Verdict, string) { return core.CharacterizeSearching(n, k) }

// CharacterizeGathering reproduces Theorem 8's gathering range.
func CharacterizeGathering(n, k int) (Verdict, string) { return core.CharacterizeGathering(n, k) }

// NewExplorationTracker counts per-robot node visits on a world.
func NewExplorationTracker(w *World) *explore.Tracker { return explore.NewTracker(w) }

// NewContamination tracks mixed-search edge contamination on a world.
func NewContamination(w *World) *search.Contamination { return search.NewContamination(w) }

// TransitionGraph regenerates the configuration diagrams of Figures 4–9.
func TransitionGraph(n, k int) (*feasibility.TransitionGraph, error) {
	return feasibility.NewTransitionGraph(n, k)
}

// ProveSearchingImpossible runs the strategy-synthesis game solver for
// exclusive perpetual graph searching on (n, k); see package feasibility.
func ProveSearchingImpossible(n, k int) (feasibility.Result, error) {
	return feasibility.NewSolver(n, k).Solve()
}

// SimSpec describes a batched Monte Carlo workload: many independent
// fair-schedule samples of one algorithm from one starting
// configuration (see internal/corda's backend contract).
type SimSpec = corda.SimSpec

// SimReport is the deterministic aggregate of a Monte Carlo batch:
// outcome counts, gathering-time histogram, coverage and clearing
// statistics. Identical specs produce bit-identical reports at any
// worker count and on either backend.
type SimReport = corda.SimReport

// SimBackend runs a SimSpec to a SimReport.
type SimBackend = corda.Backend

// MonteCarloSpec assembles the SimSpec matching a task's capability
// model (the Monte Carlo analogue of NewWorld): exclusive lanes for the
// perpetual tasks, contamination tracking for searching, multiplicity
// detection and the gathered stop for gathering.
func MonteCarloSpec(task Task, start Config, samples, maxSteps int, seed uint64) (SimSpec, error) {
	return mcsim.SpecFor(task, start, samples, maxSteps, seed)
}

// NewBatchBackend returns the struct-of-arrays batch engine: thousands
// of lanes stepped in a tight allocation-free loop across a worker pool
// (workers 0 means GOMAXPROCS).
func NewBatchBackend(spec SimSpec, workers int) (*mcsim.Engine, error) {
	return mcsim.New(spec, workers)
}

// NewProofBackend returns the reference backend: the same workload
// driven one world at a time through AsyncRunner, bit-identical to the
// batch engine lane for lane.
func NewProofBackend(spec SimSpec) (*mcsim.ProofBackend, error) {
	return mcsim.NewProof(spec)
}
