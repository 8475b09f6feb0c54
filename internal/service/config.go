// Package service is the long-running verdict service: an HTTP/JSON
// front end over the impossibility solver that answers feasibility
// queries for arbitrary (k, n), backed by a persistent
// content-addressed verdict store (internal/verdictstore,
// journal-backed so it survives kill -9), single-flight deduplication
// so concurrent identical queries cost one solve, a bounded worker pool
// with cheapest-first admission and load shedding (flights and the
// admission queue are in admission.go), and graceful degradation:
// overload, per-request budgets, deadlines and SIGTERM all suspend
// in-flight solves through the solver's checkpoint path, the checkpoint
// is journaled under the same instance key, and a later request for the
// same instance resumes the drain instead of restarting it — partial
// work is never lost.
package service

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"ringrobots/internal/faultfs"
)

// Config configures a Service. The zero value is invalid; Default
// returns a runnable starting point.
type Config struct {
	// StorePath is the verdict-store journal file (required). Verdict
	// and checkpoint records for every instance share this one log.
	StorePath string
	// Workers is the number of solves run concurrently (≥ 1). Each
	// solve internally uses SolveWorkers solver goroutines.
	Workers int
	// QueueCap bounds the admission queue of solves admitted but not
	// yet started (≥ 1). When it is full the service load-sheds
	// cheapest-first: a cheaper arrival evicts the most expensive
	// queued solve (both get 429 + Retry-After semantics, the evicted
	// one keeps its journaled progress).
	QueueCap int
	// SolveWorkers is the solver's internal worker-pool size per solve.
	// 1 (the default) makes suspend/resume chains bit-deterministic:
	// the served verdict, tier, survivor and TablesExplored are
	// identical to an uninterrupted run no matter how often the drain
	// was suspended.
	SolveWorkers int
	// DefaultBudget is the per-request expansion budget applied when a
	// request does not set one; MaxBudget caps what a request may ask
	// for. Budget exhaustion suspends the solve to a journaled
	// checkpoint (202, retryable) rather than failing it.
	DefaultBudget int
	MaxBudget     int
	// CheckpointEvery journals a periodic checkpoint every that many
	// processed branches (0 disables; then only suspension checkpoints
	// are journaled and kill -9 mid-solve loses the partial work).
	CheckpointEvery int
	// CompactAbove is the record-count floor for compacting the store
	// journal down to its live records (all verdicts + the latest
	// checkpoint per unfinished instance): the store compacts once it
	// holds more than this many records and its dead bytes exceed its
	// live bytes (0 disables compaction).
	CompactAbove int
	// Sync selects fsync-per-append for the store journal. Verdict
	// records are always synced before being served; this flag extends
	// the guarantee to periodic checkpoints.
	Sync bool
	// Logger receives structured request and lifecycle logs; nil means
	// slog.Default().
	Logger *slog.Logger

	// BranchHook is the fault-injection crashpoint hook threaded to
	// every solver (Solver.BranchHook). Testing only; production
	// configs leave it nil.
	BranchHook func(int64)

	// FS is the filesystem seam the verdict store journals through; nil
	// means the real OS. Testing and storage fault injection only
	// (faultfs.Injector); production configs leave it nil.
	FS faultfs.FS
}

// Default returns a production-shaped config for the given store path.
func Default(storePath string) Config {
	return Config{
		StorePath:       storePath,
		Workers:         2,
		QueueCap:        64,
		SolveWorkers:    1,
		DefaultBudget:   50_000_000,
		MaxBudget:       500_000_000,
		CheckpointEvery: 64,
		CompactAbove:    256,
		Sync:            true,
	}
}

// Validate reports every config problem at once as one aggregated
// error (fail-fast at startup, not first-error-wins), or nil.
func (c *Config) Validate() error {
	var errs []error
	if c.StorePath == "" {
		errs = append(errs, errors.New("StorePath is required"))
	}
	if c.Workers < 1 {
		errs = append(errs, fmt.Errorf("Workers %d below minimum 1", c.Workers))
	}
	if c.QueueCap < 1 {
		errs = append(errs, fmt.Errorf("QueueCap %d below minimum 1", c.QueueCap))
	}
	if c.SolveWorkers < 1 {
		errs = append(errs, fmt.Errorf("SolveWorkers %d below minimum 1", c.SolveWorkers))
	}
	if c.DefaultBudget < 1 {
		errs = append(errs, fmt.Errorf("DefaultBudget %d below minimum 1", c.DefaultBudget))
	}
	if c.MaxBudget < 1 {
		errs = append(errs, fmt.Errorf("MaxBudget %d below minimum 1", c.MaxBudget))
	}
	if c.MaxBudget >= 1 && c.DefaultBudget > c.MaxBudget {
		errs = append(errs, fmt.Errorf("DefaultBudget %d exceeds MaxBudget %d", c.DefaultBudget, c.MaxBudget))
	}
	if c.CheckpointEvery < 0 {
		errs = append(errs, fmt.Errorf("CheckpointEvery %d is negative", c.CheckpointEvery))
	}
	if c.CompactAbove < 0 {
		errs = append(errs, fmt.Errorf("CompactAbove %d is negative", c.CompactAbove))
	}
	if len(errs) > 0 {
		return fmt.Errorf("service: invalid config: %w", errors.Join(errs...))
	}
	return nil
}

// retryAfterFloor is the minimum Retry-After hint handed to shed or
// suspended requests.
const retryAfterFloor = time.Second

// degradedRetryAfter is the Retry-After hint handed to writes refused
// in degraded read-only mode: recovery needs an operator (repair +
// restart), so the hint is much longer than queue-drain backoff.
const degradedRetryAfter = 30 * time.Second
