package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ringrobots/internal/feasibility"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testConfig is a small, fast config over a per-test store.
func testConfig(t *testing.T) Config {
	t.Helper()
	cfg := Default(filepath.Join(t.TempDir(), "store.log"))
	cfg.Workers = 1
	cfg.QueueCap = 8
	cfg.CheckpointEvery = 4
	cfg.CompactAbove = 64
	cfg.Logger = quietLogger()
	return cfg
}

func mustNew(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

func drainService(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestConfigValidateAggregatesAllErrors(t *testing.T) {
	bad := Config{Workers: 0, QueueCap: -1, SolveWorkers: 0, DefaultBudget: 0, MaxBudget: 0, CheckpointEvery: -2, CompactAbove: -3}
	err := bad.Validate()
	if err == nil {
		t.Fatal("invalid config validated")
	}
	for _, want := range []string{"StorePath", "Workers", "QueueCap", "SolveWorkers", "DefaultBudget", "MaxBudget", "CheckpointEvery", "CompactAbove"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error does not mention %s: %v", want, err)
		}
	}
	good := Default(filepath.Join(t.TempDir(), "s.log"))
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestInvalidRequestAggregatesAllErrors(t *testing.T) {
	svc := mustNew(t, testConfig(t))
	defer drainService(t, svc)
	resp := svc.Solve(context.Background(), Request{
		Instance: feasibility.Instance{N: 99, K: 0, PendingTiers: []int{-1}},
		Budget:   -5,
		Timeout:  -time.Second,
	})
	if resp.Status != StatusInvalid || resp.Err == nil {
		t.Fatalf("invalid request got %v (err=%v)", resp.Status, resp.Err)
	}
	for _, want := range []string{"ring size", "robot count", "tier", "budget", "timeout"} {
		if !strings.Contains(resp.Err.Error(), want) {
			t.Errorf("aggregated request error does not mention %q: %v", want, resp.Err)
		}
	}
}

// TestSingleFlightDedup is the million-identical-queries contract in
// miniature: 16 concurrent identical requests cost exactly one solve,
// and every requester receives the identical verdict.
func TestSingleFlightDedup(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 2
	// Slow each branch slightly so the requests genuinely overlap one
	// in-flight solve rather than racing a cache hit.
	cfg.BranchHook = func(int64) { time.Sleep(time.Millisecond) }
	svc := mustNew(t, cfg)
	inst := feasibility.Instance{N: 7, K: 3}
	const clients = 16
	resps := make([]Response, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = svc.Solve(context.Background(), Request{Instance: inst})
		}(i)
	}
	wg.Wait()
	want := verdictOf(solveDirect(t, inst))
	for i, r := range resps {
		if r.Status != StatusVerdict || r.Verdict == nil {
			t.Fatalf("client %d: %v (err=%v)", i, r.Status, r.Err)
		}
		if !bytes.Equal(EncodeVerdict(*r.Verdict), EncodeVerdict(want)) {
			t.Fatalf("client %d: verdict differs from the direct solve", i)
		}
	}
	m := svc.MetricsSnapshot()
	if m.SolvesStarted != 1 {
		t.Errorf("%d solves started for %d identical queries, want exactly 1", m.SolvesStarted, clients)
	}
	if m.Deduped+m.CacheHits != clients-1 {
		t.Errorf("deduped %d + cache hits %d != %d", m.Deduped, m.CacheHits, clients-1)
	}
	// A later identical request is a pure cache hit.
	r := svc.Solve(context.Background(), Request{Instance: inst})
	if r.Status != StatusVerdict || !r.Cached {
		t.Errorf("post-solve request not served from cache: %+v", r)
	}
	drainService(t, svc)
}

// TestBudgetSuspendAndResume: a starved request suspends with its
// progress journaled; retries resume the drain (never restart) and the
// eventual verdict is bit-identical to an uninterrupted solve,
// including TablesExplored (single-worker determinism).
func TestBudgetSuspendAndResume(t *testing.T) {
	cfg := testConfig(t)
	svc := mustNew(t, cfg)
	inst := feasibility.Instance{N: 7, K: 3}
	req := Request{Instance: inst, Budget: 200}
	resp := svc.Solve(context.Background(), req)
	if resp.Status != StatusSuspended {
		t.Fatalf("starved solve returned %v (err=%v), want suspended", resp.Status, resp.Err)
	}
	if resp.RetryAfter <= 0 {
		t.Errorf("suspended response carries no Retry-After hint")
	}
	if _, ok := svc.store.Checkpoint(inst.Key()); !ok {
		t.Fatalf("suspension left no checkpoint in the store")
	}
	legs := 1
	for resp.Status == StatusSuspended {
		if legs++; legs > 500 {
			t.Fatal("drain did not converge in 500 legs")
		}
		resp = svc.Solve(context.Background(), req)
		if resp.Status == StatusSuspended || resp.Status == StatusVerdict {
			if !resp.Resumed {
				t.Fatalf("leg %d did not resume the journaled drain", legs)
			}
		}
	}
	if resp.Status != StatusVerdict {
		t.Fatalf("drain ended with %v (err=%v)", resp.Status, resp.Err)
	}
	straight := solveDirect(t, inst)
	if resp.Verdict.Impossible != straight.Impossible || resp.Verdict.Tier != straight.Tier ||
		resp.Verdict.TablesExplored != straight.TablesExplored {
		t.Errorf("resumed drain verdict (%v, tier %d, %d tables) != uninterrupted (%v, %d, %d)",
			resp.Verdict.Impossible, resp.Verdict.Tier, resp.Verdict.TablesExplored,
			straight.Impossible, straight.Tier, straight.TablesExplored)
	}
	m := svc.MetricsSnapshot()
	if m.BudgetAborts == 0 || m.ResumedDrains == 0 {
		t.Errorf("metrics did not record the drain: budget_aborts=%d resumed_drains=%d", m.BudgetAborts, m.ResumedDrains)
	}
	if m.Suspended != m.BudgetAborts {
		t.Errorf("suspended %d != budget aborts %d for a budget-only drain", m.Suspended, m.BudgetAborts)
	}
	drainService(t, svc)
}

// TestShutdownSuspendsInFlight: Shutdown answers queued requests with
// a retryable refusal, suspends the in-flight solve to a journaled
// checkpoint, and a fresh service over the same store resumes it.
func TestShutdownSuspendsInFlight(t *testing.T) {
	cfg := testConfig(t)
	started := make(chan struct{})
	var once sync.Once
	// Slow branches keep the solve in flight while Shutdown lands; the
	// hook never blocks, so the drain cannot deadlock.
	cfg.BranchHook = func(done int64) {
		if done >= 3 {
			once.Do(func() { close(started) })
		}
		time.Sleep(10 * time.Millisecond)
	}
	svc := mustNew(t, cfg)
	inst := feasibility.Instance{N: 7, K: 4}
	inFlight := make(chan Response, 1)
	go func() { inFlight <- svc.Solve(context.Background(), Request{Instance: inst}) }()
	<-started
	// A second, different instance queues behind the busy worker.
	queued := make(chan Response, 1)
	go func() { queued <- svc.Solve(context.Background(), Request{Instance: feasibility.Instance{N: 8, K: 5}}) }()
	for i := 0; svc.MetricsSnapshot().QueueDepth == 0 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-inFlight
	if r.Status != StatusSuspended {
		t.Fatalf("in-flight solve answered %v (err=%v), want suspended", r.Status, r.Err)
	}
	q := <-queued
	if q.Status != StatusDraining {
		t.Fatalf("queued solve answered %v (err=%v), want draining", q.Status, q.Err)
	}

	// Restart over the same store: the drain resumes where it stopped.
	cfg2 := testConfig(t)
	cfg2.StorePath = cfg.StorePath
	svc2 := mustNew(t, cfg2)
	defer drainService(t, svc2)
	resp := svc2.Solve(context.Background(), Request{Instance: inst})
	if resp.Status != StatusVerdict || !resp.Resumed {
		t.Fatalf("restarted service returned %v (resumed=%v, err=%v), want a resumed verdict",
			resp.Status, resp.Resumed, resp.Err)
	}
	if svc2.MetricsSnapshot().ResumedDrains != 1 {
		t.Errorf("restarted service resumed %d drains, want 1", svc2.MetricsSnapshot().ResumedDrains)
	}
	straight := solveDirect(t, inst)
	if resp.Verdict.Impossible != straight.Impossible || resp.Verdict.Tier != straight.Tier ||
		resp.Verdict.TablesExplored != straight.TablesExplored {
		t.Errorf("shutdown-interrupted drain verdict (%v, tier %d, %d tables) != uninterrupted (%v, %d, %d)",
			resp.Verdict.Impossible, resp.Verdict.Tier, resp.Verdict.TablesExplored,
			straight.Impossible, straight.Tier, straight.TablesExplored)
	}
}

// TestAdmissionOverload: a full queue sheds cheapest-first — a cheaper
// arrival evicts the most expensive queued solve, an expensive arrival
// is refused outright, both with Retry-After hints.
func TestAdmissionOverload(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueCap = 1
	blocked := make(chan struct{})
	var once sync.Once
	cfg.BranchHook = func(int64) {
		once.Do(func() { close(blocked) })
		time.Sleep(5 * time.Millisecond)
	}
	svc := mustNew(t, cfg)
	bg := make(chan Response, 3)
	// Occupy the only worker.
	go func() { bg <- svc.Solve(context.Background(), Request{Instance: feasibility.Instance{N: 7, K: 3}}) }()
	<-blocked
	// Fill the queue with an expensive instance.
	go func() { bg <- svc.Solve(context.Background(), Request{Instance: feasibility.Instance{N: 8, K: 5}}) }()
	for i := 0; svc.MetricsSnapshot().QueueDepth == 0 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	// A cheaper arrival evicts it...
	cheap := make(chan Response, 1)
	go func() { cheap <- svc.Solve(context.Background(), Request{Instance: feasibility.Instance{N: 7, K: 4}}) }()
	var shedResp Response
	select {
	case shedResp = <-bg:
	case <-time.After(10 * time.Second):
		t.Fatal("expensive queued solve was not shed")
	}
	if shedResp.Status != StatusOverloaded || shedResp.RetryAfter <= 0 {
		t.Fatalf("shed solve answered %+v, want overloaded with Retry-After", shedResp)
	}
	// ...and an expensive arrival is refused outright.
	r := svc.Solve(context.Background(), Request{Instance: feasibility.Instance{N: 8, K: 5}})
	if r.Status != StatusOverloaded || r.RetryAfter <= 0 {
		t.Fatalf("expensive arrival answered %+v, want overloaded with Retry-After", r)
	}
	m := svc.MetricsSnapshot()
	if m.Shed != 1 || m.Rejected != 1 {
		t.Errorf("shed=%d rejected=%d, want 1 and 1", m.Shed, m.Rejected)
	}
	drainService(t, svc)
}

func TestHTTPHandlers(t *testing.T) {
	cfg := testConfig(t)
	svc := mustNew(t, cfg)
	defer drainService(t, svc)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	get := func(path string) (int, SolveBody, http.Header) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var body SolveBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
		return resp.StatusCode, body, resp.Header
	}

	code, body, _ := get("/solve?n=7&k=3")
	if code != http.StatusOK || body.Status != "verdict" || body.Impossible == nil || !*body.Impossible {
		t.Fatalf("GET /solve?n=7&k=3 = %d %+v, want 200 impossible verdict", code, body)
	}
	if body.Key == "" {
		t.Errorf("verdict body carries no content-address key")
	}
	code, body, _ = get("/solve?n=7&k=3")
	if code != http.StatusOK || !body.Cached {
		t.Fatalf("repeat query = %d cached=%v, want a cache hit", code, body.Cached)
	}

	// A survivor case over HTTP (crippled adversary finishes fast).
	code, body, _ = get("/solve?n=5&k=3&cycle=2&tiers=0")
	if code != http.StatusOK || !body.Survivor || body.SurvivorSize == 0 {
		t.Fatalf("survivor query = %d %+v, want a survivor verdict", code, body)
	}

	// Bad parameters: one 400 listing every problem.
	code, body, _ = get("/solve?n=nope&budget=x")
	if code != http.StatusBadRequest {
		t.Fatalf("malformed query returned %d, want 400", code)
	}
	for _, want := range []string{`"n"`, `"k"`, `"budget"`} {
		if !strings.Contains(body.Error, want) {
			t.Errorf("400 body does not mention %s: %q", want, body.Error)
		}
	}

	// A starved solve suspends: 202 + Retry-After.
	code, body, hdr := get("/solve?n=8&k=5&budget=200")
	if code != http.StatusAccepted || body.Status != "suspended" {
		t.Fatalf("starved query = %d %+v, want 202 suspended", code, body)
	}
	if hdr.Get("Retry-After") == "" || body.RetryAfterSec < 1 {
		t.Errorf("202 lacks Retry-After (hdr=%q body=%d)", hdr.Get("Retry-After"), body.RetryAfterSec)
	}

	// Metrics reflect the traffic.
	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatalf("GET /metricz: %v", err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metricz: %v", err)
	}
	if snap.SolvesStarted != 3 || snap.CacheHits != 1 || snap.BudgetAborts != 1 || snap.StoredVerdicts != 2 {
		t.Errorf("metricz %+v: want solves_started=3 cache_hits=1 budget_aborts=1 stored_verdicts=2", snap)
	}
	if snap.SolveSamples == 0 || snap.SolveLatencyMsP90 < snap.SolveLatencyMsP50 {
		t.Errorf("implausible latency stats: %+v", snap)
	}

	// Health.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hresp)
	}
	hresp.Body.Close()
}

// TestOracleParamsNotServed: the solver's differential oracle modes are
// not part of the HTTP API, so a request naming one is the same instance
// as the plain request and shares its cached verdict.
func TestOracleParamsNotServed(t *testing.T) {
	svc := mustNew(t, testConfig(t))
	defer drainService(t, svc)
	h := svc.Handler()
	get := func(path string) SolveBody {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var body SolveBody
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
		if rec.Code != http.StatusOK || body.Status != "verdict" {
			t.Fatalf("GET %s = %d %+v, want 200 verdict", path, rec.Code, body)
		}
		return body
	}
	oracle := get("/solve?n=7&k=3&noprune=1")
	plain := get("/solve?n=7&k=3")
	if plain.Key != oracle.Key {
		t.Errorf("noprune=1 changed the instance key: %s vs %s", oracle.Key, plain.Key)
	}
	if !plain.Cached {
		t.Errorf("plain request after noprune=1 was not a cache hit")
	}
	if n := svc.MetricsSnapshot().SolvesStarted; n != 1 {
		t.Errorf("%d solves started, want 1", n)
	}
}
