// Command serve runs the long-running verdict service: an HTTP/JSON
// API answering feasibility/impossibility queries for arbitrary
// (k, n), backed by a journal-persisted content-addressed verdict
// store, single-flight deduplication, a bounded worker pool with
// cheapest-first admission, and graceful degradation — budget or
// deadline exhaustion and SIGTERM all suspend in-flight solves to
// journaled checkpoints that later identical requests resume.
//
// Usage:
//
//	serve -addr :8080 -store verdicts.log
//	curl 'localhost:8080/solve?n=9&k=5'
//	curl localhost:8080/metricz
//
// SIGINT/SIGTERM drain: new requests get 503, queued ones a retryable
// 503, in-flight solves suspend through the checkpoint path and answer
// 202; the process exits 0 once every accepted request was answered.
//
// Storage failure (ENOSPC, I/O errors, a failed fsync) flips the
// service to sticky degraded read-only mode rather than killing it:
// cached verdicts still answer 200, anything needing a store write gets
// 503 with Retry-After, and /healthz reports "degraded: <reason>" until
// an operator fixes the storage and restarts. A store journal that was
// corrupted while the service was down refuses to open; run
// `drain -fsck -repair -journal <store>` to quarantine the damage and
// recover every intact record before restarting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ringrobots/internal/journal"
	"ringrobots/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	store := flag.String("store", "", "verdict-store journal path (required)")
	workers := flag.Int("workers", 2, "concurrent solves")
	queueCap := flag.Int("queue", 64, "admission queue capacity")
	solveWorkers := flag.Int("solve-workers", 1, "solver goroutines per solve (1 = deterministic resume chains)")
	defaultBudget := flag.Int("default-budget", 50_000_000, "per-request expansion budget when the request sets none")
	maxBudget := flag.Int("max-budget", 500_000_000, "cap on the per-request expansion budget")
	every := flag.Int("checkpoint-every", 64, "journal a checkpoint every this many branches (0 disables periodic checkpoints)")
	compactAbove := flag.Int("compact-above", 256, "record-count floor for store compaction: compact once above it and dead bytes exceed live bytes (0 disables)")
	sync := flag.Bool("sync", true, "fsync the store journal after every append")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight solves on shutdown")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg := service.Config{
		StorePath:       *store,
		Workers:         *workers,
		QueueCap:        *queueCap,
		SolveWorkers:    *solveWorkers,
		DefaultBudget:   *defaultBudget,
		MaxBudget:       *maxBudget,
		CheckpointEvery: *every,
		CompactAbove:    *compactAbove,
		Sync:            *sync,
		Logger:          logger,
	}
	// Fail fast with every problem at once, not first-error-wins.
	var errs []error
	if err := cfg.Validate(); err != nil {
		errs = append(errs, err)
	}
	if *drainTimeout <= 0 {
		errs = append(errs, fmt.Errorf("-drain-timeout %v must be positive", *drainTimeout))
	}
	if len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "serve: invalid flags:\n%v\n", errors.Join(errs...))
		os.Exit(1)
	}

	svc, err := service.New(cfg)
	if err != nil {
		if errors.Is(err, journal.ErrCorrupt) {
			logger.Error("startup failed: store journal is corrupt mid-file; refusing to truncate recoverable records",
				"err", err, "hint", fmt.Sprintf("run `drain -fsck -repair -journal %s` to quarantine the damage and recover, then restart", *store))
		} else {
			logger.Error("startup failed", "err", err)
		}
		os.Exit(1)
	}

	server := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "store", *store)

	select {
	case err := <-serveErr:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("signal received; draining", "timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the service first so every pending Solve call returns (the
	// in-flight HTTP handlers then finish writing their responses),
	// then close the listener and wait for those handlers.
	code := 0
	if err := svc.Shutdown(drainCtx); err != nil {
		logger.Error("service drain failed", "err", err)
		code = 1
	}
	if err := server.Shutdown(drainCtx); err != nil {
		logger.Error("http drain failed", "err", err)
		code = 1
	}
	os.Exit(code)
}
