package service

// Degraded-mode fault suite: inject storage failures under the verdict
// store and assert the service flips to sticky read-only — refusing
// writes with 503 + Retry-After, still serving cached verdicts,
// reporting the degradation on /healthz and /metricz — and that no
// verdict acknowledged before the failure is lost when the store is
// reopened on healthy storage.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ringrobots/internal/faultfs"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
	"ringrobots/internal/verdictstore"
)

// degradedConfig makes sync targeting deterministic: Sync=false means
// the journal itself never fsyncs on append, and CheckpointEvery=0
// disables periodic checkpoints — so the ONLY fsyncs are PutVerdict's
// explicit one, exactly one per verdict.
func degradedConfig(t *testing.T, in *faultfs.Injector) Config {
	t.Helper()
	cfg := testConfig(t)
	cfg.Sync = false
	cfg.CheckpointEvery = 0
	cfg.FS = in
	return cfg
}

func solveInst(svc *Service, n, k int) Response {
	return svc.Solve(context.Background(), Request{Instance: feasibility.Instance{N: n, K: k}})
}

func TestVerdictSyncFailureDegradesService(t *testing.T) {
	in := faultfs.NewInjector(faultfs.OS{}, 1)
	cfg := degradedConfig(t, in)
	svc := mustNew(t, cfg)
	defer drainService(t, svc)

	// A healthy solve: verdict journaled and fsynced.
	if resp := solveInst(svc, 7, 3); resp.Status != StatusVerdict {
		t.Fatalf("healthy solve = %v (%v)", resp.Status, resp.Err)
	}

	// The next verdict's fsync fails: the solve finishes but cannot be
	// made durable, so the requester gets 503-shaped degradation.
	in.FailNth(faultfs.OpSync, in.Count(faultfs.OpSync)+1, faultfs.EIO())
	resp := solveInst(svc, 7, 4)
	if resp.Status != StatusDegraded {
		t.Fatalf("solve with failing verdict fsync = %v (%v), want degraded", resp.Status, resp.Err)
	}
	if resp.RetryAfter != degradedRetryAfter {
		t.Fatalf("RetryAfter = %v, want %v", resp.RetryAfter, degradedRetryAfter)
	}

	// Cached verdicts still serve.
	if resp := solveInst(svc, 7, 3); resp.Status != StatusVerdict || !resp.Cached {
		t.Fatalf("cached read while degraded = %v cached=%v, want verdict from cache", resp.Status, resp.Cached)
	}
	// New work is refused up front, without burning a solve.
	started := svc.Metrics().solvesStarted.Load()
	if resp := solveInst(svc, 8, 5); resp.Status != StatusDegraded {
		t.Fatalf("new solve while degraded = %v, want degraded", resp.Status)
	}
	if got := svc.Metrics().solvesStarted.Load(); got != started {
		t.Fatalf("degraded reject still started a solve (%d -> %d)", started, got)
	}

	// /healthz reports the degradation with its reason; /metricz counts.
	h := svc.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "degraded:") {
		t.Fatalf("healthz = %d %q, want 503 degraded", rec.Code, rec.Body.String())
	}
	snap := svc.MetricsSnapshot()
	if !snap.Degraded || snap.DegradedReason == "" || snap.DegradedRejects < 1 {
		t.Fatalf("snapshot = degraded=%v reason=%q rejects=%d", snap.Degraded, snap.DegradedReason, snap.DegradedRejects)
	}

	// A /solve over HTTP while degraded: 503 with Retry-After.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/solve?n=9&k=4", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("solve while degraded = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}
}

// TestNoAckedVerdictLostAcrossDegradation: after the service degrades,
// every verdict acknowledged BEFORE the storage failure is still in
// the store when it reopens on healthy storage — degradation never
// retracts served answers.
func TestNoAckedVerdictLostAcrossDegradation(t *testing.T) {
	in := faultfs.NewInjector(faultfs.OS{}, 1)
	cfg := degradedConfig(t, in)
	path := cfg.StorePath
	svc := mustNew(t, cfg)

	acked := feasibility.Instance{N: 7, K: 3}.Normalized()
	if resp := solveInst(svc, 7, 3); resp.Status != StatusVerdict {
		t.Fatalf("healthy solve = %v", resp.Status)
	}
	in.FailNth(faultfs.OpSync, in.Count(faultfs.OpSync)+1, faultfs.EIO())
	if resp := solveInst(svc, 7, 4); resp.Status != StatusDegraded {
		t.Fatalf("faulted solve = %v, want degraded", resp.Status)
	}
	drainService(t, svc)
	// Crash-consistent view: only fsync-acknowledged data survives.
	if err := in.CrashUnsynced(); err != nil {
		t.Fatal(err)
	}

	st, err := verdictstore.OpenFS(faultfs.OS{}, path, journal.SyncNone)
	if err != nil {
		t.Fatalf("reopening store on healthy storage: %v", err)
	}
	defer st.Close()
	if _, ok := st.Verdict(acked.Key()); !ok {
		t.Fatal("verdict acknowledged before the storage failure is gone after reopen")
	}
	unacked := feasibility.Instance{N: 7, K: 4}.Normalized()
	if _, ok := st.Verdict(unacked.Key()); ok {
		t.Fatal("verdict whose fsync failed was served as durable after a crash")
	}
}

// TestCheckpointWriteFaultDegradesMidSolve: an ENOSPC on a periodic
// checkpoint append aborts the solve through the solver's error path
// and degrades the service — classified as storage failure, not a
// solver error.
func TestCheckpointWriteFaultDegradesMidSolve(t *testing.T) {
	in := faultfs.NewInjector(faultfs.OS{}, 1)
	cfg := testConfig(t)
	cfg.Sync = false
	cfg.CheckpointEvery = 4 // checkpoint often so the fault lands mid-solve
	cfg.FS = in
	svc := mustNew(t, cfg)
	defer drainService(t, svc)

	// First store write will be a checkpoint append (CheckpointEvery=4
	// fires long before the (8,5) solve finishes).
	in.FailNth(faultfs.OpWrite, 1, faultfs.ENOSPC())
	resp := solveInst(svc, 8, 5)
	if resp.Status != StatusDegraded {
		t.Fatalf("solve with failing checkpoint write = %v (%v), want degraded", resp.Status, resp.Err)
	}
	if _, degraded := svc.Degraded(); !degraded {
		t.Fatal("service not degraded after checkpoint write failure")
	}
	if reason, _ := svc.Degraded(); reason == "" {
		t.Fatal("degraded reason is empty")
	}
}

// TestDegradedIsSticky: once degraded, the flag survives later
// successful-looking I/O — only a restart clears it.
func TestDegradedIsSticky(t *testing.T) {
	in := faultfs.NewInjector(faultfs.OS{}, 1)
	cfg := degradedConfig(t, in)
	svc := mustNew(t, cfg)

	in.FailNth(faultfs.OpSync, 1, faultfs.EIO())
	if resp := solveInst(svc, 7, 3); resp.Status != StatusDegraded {
		t.Fatalf("first solve = %v, want degraded", resp.Status)
	}
	for i := 0; i < 3; i++ {
		if resp := solveInst(svc, 7, 4); resp.Status != StatusDegraded {
			t.Fatalf("retry %d = %v, want degraded to stick", i, resp.Status)
		}
	}
	// Reset: a fresh service over the same injector (no scheduled
	// faults left) starts healthy.
	drainService(t, svc)
	cfg2 := degradedConfig(t, in)
	cfg2.StorePath = cfg.StorePath
	svc2 := mustNew(t, cfg2)
	defer drainService(t, svc2)
	if _, degraded := svc2.Degraded(); degraded {
		t.Fatal("restarted service inherited the degraded flag")
	}
	if resp := solveInst(svc2, 7, 4); resp.Status != StatusVerdict {
		t.Fatalf("solve after restart = %v (%v), want verdict", resp.Status, resp.Err)
	}
}
