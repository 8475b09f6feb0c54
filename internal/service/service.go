package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"ringrobots/internal/faultfs"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
	"ringrobots/internal/verdictstore"
)

// Status classifies a Solve outcome for the caller (the HTTP layer
// maps these onto status codes).
type Status int

const (
	// StatusVerdict: a final verdict is attached (freshly solved or
	// served from the store).
	StatusVerdict Status = iota
	// StatusSuspended: the solve ran out of budget or deadline (or the
	// service began draining mid-solve); its progress is journaled and
	// a retry of the same request resumes the drain where it stopped.
	StatusSuspended
	// StatusOverloaded: refused at admission (queue full of cheaper
	// work, or evicted by a cheaper arrival). Retry after RetryAfter.
	StatusOverloaded
	// StatusDraining: the service is shutting down and accepted no new
	// work. Retry against the restarted service.
	StatusDraining
	// StatusInvalid: the request itself is malformed (Err lists every
	// problem).
	StatusInvalid
	// StatusError: an internal failure (client gone, solver bug).
	StatusError
	// StatusDegraded: the store's journal failed (ENOSPC, EIO, failed
	// fsync) and the service is in sticky read-only mode — cached
	// verdicts are still served, anything needing a durable write is
	// refused with Retry-After until an operator repairs the storage
	// and restarts.
	StatusDegraded
)

func (st Status) String() string {
	switch st {
	case StatusVerdict:
		return "verdict"
	case StatusSuspended:
		return "suspended"
	case StatusOverloaded:
		return "overloaded"
	case StatusDraining:
		return "draining"
	case StatusInvalid:
		return "invalid"
	case StatusError:
		return "error"
	case StatusDegraded:
		return "degraded"
	}
	return fmt.Sprintf("Status(%d)", int(st))
}

// Request is one verdict query.
type Request struct {
	Instance feasibility.Instance
	// Budget is this run's expansion allowance (0 = Config.DefaultBudget,
	// capped at Config.MaxBudget). Exhaustion suspends, never discards.
	Budget int
	// Timeout bounds this run's wall time (0 = none); expiry suspends
	// the solve to a checkpoint exactly like budget exhaustion.
	Timeout time.Duration
}

// Response is the outcome delivered to every requester of a flight.
type Response struct {
	Status  Status
	Verdict *verdictstore.Verdict
	// Cached: served from the verdict store without any solve.
	Cached bool
	// Resumed: this run continued a journaled checkpoint rather than
	// starting from the empty table.
	Resumed    bool
	RetryAfter time.Duration
	Err        error
}

// Service is the verdict service core, independent of HTTP (handlers.go
// adds that). One Service owns one Store and one worker pool.
type Service struct {
	cfg     Config
	log     *slog.Logger
	store   *verdictstore.Store
	metrics *Metrics
	queue   *admitQueue

	mu       sync.Mutex
	flights  map[string]*flight
	draining bool

	// degraded flips once, on the first storage failure, and stays set
	// until restart: serving a verdict the store cannot persist risks a
	// crash silently retracting it, so writes are refused while cached
	// reads keep flowing.
	degraded atomic.Pointer[degradedInfo]

	solveCtx     context.Context
	cancelSolves context.CancelFunc
	wg           sync.WaitGroup
}

// degradedInfo records why and when the service went read-only.
type degradedInfo struct {
	reason string
	since  time.Time
}

// degrade enters sticky read-only mode (first cause wins; later calls
// are no-ops so the reported reason is the root failure).
func (s *Service) degrade(cause error) {
	info := &degradedInfo{reason: cause.Error(), since: time.Now()}
	if s.degraded.CompareAndSwap(nil, info) {
		s.log.Error("storage failure: entering degraded read-only mode "+
			"(cached verdicts still served; repair storage and restart)", "cause", cause)
	}
}

// Degraded reports whether the service is in read-only degraded mode
// and why.
func (s *Service) Degraded() (reason string, ok bool) {
	if info := s.degraded.Load(); info != nil {
		return info.reason, true
	}
	return "", false
}

// New validates the config, opens (and replays) the verdict store, and
// starts the worker pool.
func New(cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	policy := journal.SyncNone
	if cfg.Sync {
		policy = journal.SyncAlways
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	store, err := verdictstore.OpenFS(fsys, cfg.StorePath, policy)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:          cfg,
		log:          logger,
		store:        store,
		metrics:      newMetrics(),
		queue:        newAdmitQueue(cfg.QueueCap),
		flights:      make(map[string]*flight),
		solveCtx:     ctx,
		cancelSolves: cancel,
	}
	verdicts, checkpoints, records, bytes := store.Counts()
	logger.Info("store opened", "path", cfg.StorePath,
		"verdicts", verdicts, "checkpoints", checkpoints, "records", records, "bytes", bytes)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				f := s.queue.pop()
				if f == nil {
					return
				}
				s.runFlight(f)
			}
		}()
	}
	return s, nil
}

// Metrics exposes the counter set (handlers and tests).
func (s *Service) Metrics() *Metrics { return s.metrics }

// MetricsSnapshot captures the full /metricz view.
func (s *Service) MetricsSnapshot() Snapshot {
	snap := s.metrics.snapshot(s.queue.depth(), s.store)
	if info := s.degraded.Load(); info != nil {
		snap.Degraded = true
		snap.DegradedReason = info.reason
		snap.DegradedSec = time.Since(info.since).Seconds()
	}
	return snap
}

// retryAfter estimates how long a refused or suspended requester
// should back off: the queue's expected drain time under the current
// mean solve latency, floored at one second.
func (s *Service) retryAfter() time.Duration {
	mean := s.metrics.meanLatency()
	if mean <= 0 {
		mean = retryAfterFloor
	}
	wait := time.Duration(s.queue.depth()+1) * mean / time.Duration(s.cfg.Workers)
	if wait < retryAfterFloor {
		wait = retryAfterFloor
	}
	return wait
}

// Solve answers one verdict query, blocking until the verdict (or a
// degraded outcome) is available. Identical concurrent requests share
// one solve; ctx cancels this caller's wait, never the shared solve.
func (s *Service) Solve(ctx context.Context, req Request) Response {
	inst := req.Instance.Normalized()
	var errs []error
	if err := inst.Validate(); err != nil {
		errs = append(errs, err)
	}
	if req.Budget < 0 {
		errs = append(errs, fmt.Errorf("budget %d is negative", req.Budget))
	}
	if req.Timeout < 0 {
		errs = append(errs, fmt.Errorf("timeout %v is negative", req.Timeout))
	}
	if len(errs) > 0 {
		return Response{Status: StatusInvalid, Err: errors.Join(errs...)}
	}
	budget := req.Budget
	if budget == 0 {
		budget = s.cfg.DefaultBudget
	}
	if budget > s.cfg.MaxBudget {
		budget = s.cfg.MaxBudget
	}
	key := inst.Key()
	if v, ok := s.store.Verdict(key); ok {
		s.metrics.cacheHits.Add(1)
		return Response{Status: StatusVerdict, Verdict: &v, Cached: true}
	}
	s.metrics.cacheMisses.Add(1)

	// Degraded read-only mode: the cache-hit path above still serves,
	// but a miss means a solve whose verdict or checkpoints the store
	// could not persist — refuse it up front instead of wasting the
	// solve and failing at the write.
	if info := s.degraded.Load(); info != nil {
		s.metrics.degradedRejects.Add(1)
		return Response{Status: StatusDegraded, RetryAfter: degradedRetryAfter,
			Err: fmt.Errorf("service: degraded (read-only) since storage failure: %s", info.reason)}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.drained.Add(1)
		return Response{Status: StatusDraining, RetryAfter: retryAfterFloor, Err: errors.New("service: draining")}
	}
	f, inFlight := s.flights[key]
	if !inFlight {
		f = &flight{
			key:     key,
			inst:    inst,
			budget:  budget,
			timeout: req.Timeout,
			cost:    solveCost(inst),
			done:    make(chan struct{}),
		}
		evicted, ok := s.queue.push(f)
		if !ok {
			draining := s.draining
			s.mu.Unlock()
			if draining {
				s.metrics.drained.Add(1)
				return Response{Status: StatusDraining, RetryAfter: retryAfterFloor, Err: errors.New("service: draining")}
			}
			s.metrics.rejected.Add(1)
			return Response{Status: StatusOverloaded, RetryAfter: s.retryAfter(),
				Err: fmt.Errorf("service: admission queue full (%d)", s.cfg.QueueCap)}
		}
		s.flights[key] = f
		if evicted != nil {
			delete(s.flights, evicted.key)
		}
		s.mu.Unlock()
		if evicted != nil {
			s.metrics.shed.Add(1)
			evicted.deliver(Response{Status: StatusOverloaded, RetryAfter: s.retryAfter(),
				Err: errors.New("service: shed by cheaper work under overload")})
		}
	} else {
		s.mu.Unlock()
		s.metrics.deduped.Add(1)
	}

	select {
	case <-f.done:
		return f.resp
	case <-ctx.Done():
		// Only this caller gives up; the flight runs on for its other
		// waiters and the store.
		return Response{Status: StatusError, Err: ctx.Err()}
	}
}

// runFlight executes one solve on a pool worker and delivers the
// outcome to every waiter.
func (s *Service) runFlight(f *flight) {
	start := time.Now()
	s.metrics.solvesStarted.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	ctx := s.solveCtx
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	sol := f.inst.Solver()
	sol.Workers = s.cfg.SolveWorkers
	sol.MaxExpansions = f.budget
	sol.BranchHook = s.cfg.BranchHook
	sol.CheckpointEvery = s.cfg.CheckpointEvery
	res, cp, resumed, err := s.store.Drain(ctx, f.key, f.inst, sol, s.cfg.CompactAbove, s.log)
	elapsed := time.Since(start)
	s.metrics.recordLatency(elapsed)
	if resumed {
		s.metrics.resumedDrains.Add(1)
	}

	switch {
	case err == nil:
		v := verdictstore.VerdictOf(res)
		s.metrics.solvesCompleted.Add(1)
		s.log.Info("solve finished", "inst", f.inst.String(), "impossible", res.Impossible,
			"tier", res.Tier, "tables", res.TablesExplored, "units", res.ExpansionUnits,
			"resumed", resumed, "ms", ms(elapsed))
		s.finishFlight(f, Response{Status: StatusVerdict, Verdict: &v, Resumed: resumed})
	case cp != nil:
		// Suspended with a live frontier, journaled so a retry — or a
		// restart after SIGTERM — resumes instead of restarting.
		if errors.Is(err, feasibility.ErrBudget) {
			s.metrics.budgetAborts.Add(1)
		}
		s.metrics.suspended.Add(1)
		s.log.Info("solve suspended", "inst", f.inst.String(), "resumed", resumed,
			"units", res.ExpansionUnits, "ms", ms(elapsed), "cause", err)
		s.finishFlight(f, Response{Status: StatusSuspended, Resumed: resumed, RetryAfter: s.retryAfter(), Err: err})
	case errors.Is(err, verdictstore.ErrStorage):
		// The store could not persist the verdict or a checkpoint. A
		// verdict that is not durable is not served: a crash could
		// silently retract it. Flip read-only so later misses are
		// refused up front.
		s.degrade(err)
		s.log.Error("journaling failed", "inst", f.inst.String(), "err", err)
		s.finishFlight(f, Response{Status: StatusDegraded, RetryAfter: degradedRetryAfter, Err: err})
	default:
		s.log.Error("solve failed", "inst", f.inst.String(), "err", err)
		s.finishFlight(f, Response{Status: StatusError, Err: err})
	}
}

// finishFlight detaches the flight (so later requests consult the
// store or start a resume) and then wakes its waiters.
func (s *Service) finishFlight(f *flight, r Response) {
	s.mu.Lock()
	delete(s.flights, f.key)
	s.mu.Unlock()
	f.deliver(r)
}

// Shutdown drains the service: new requests are refused, queued
// flights are answered with StatusDraining, and in-flight solves are
// suspended through the checkpoint path — their waiters get
// StatusSuspended and their progress is journaled, so a restart
// resumes every one of them. Blocks until the drain completes or ctx
// expires (then the error reports what was still running; journaled
// periodic checkpoints still bound the loss).
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: already draining")
	}
	s.draining = true
	s.mu.Unlock()

	// Refuse queued-but-unstarted flights (they hold no partial work).
	for _, f := range s.queue.close() {
		s.mu.Lock()
		delete(s.flights, f.key)
		s.mu.Unlock()
		s.metrics.drained.Add(1)
		f.deliver(Response{Status: StatusDraining, RetryAfter: retryAfterFloor,
			Err: errors.New("service: draining")})
	}
	// Suspend in-flight solves; each journals its checkpoint and
	// answers its waiters before the worker exits.
	s.cancelSolves()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("service: drain deadline exceeded with %d solves in flight: %w",
			s.metrics.inflight.Load(), ctx.Err())
	}
	if err := s.store.Close(); err != nil {
		return fmt.Errorf("service: closing store: %w", err)
	}
	s.log.Info("drained cleanly")
	return nil
}
