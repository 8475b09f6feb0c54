package service

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"ringrobots/internal/feasibility"
	"ringrobots/internal/verdictstore"
)

// The service fault-injection suite, mirroring the solver-level one in
// internal/feasibility/fault_test.go: a subprocess runs the full
// verdict service over a real store journal and SIGKILLs itself after a
// randomized number of processed branches. The parent respawns the
// service against the same store until a verdict lands, then checks the
// crash-riddled sequence served exactly the uninterrupted verdict —
// bit-identical under EncodeVerdict, including TablesExplored (single
// solve worker). This crosses every durability layer at once: periodic
// checkpoints through Service.runFlight, fsync'd store appends,
// torn-tail recovery in verdictstore.OpenFS, compaction racing the
// crashes (CompactAbove is set low on purpose), and the resume-on-retry
// path.

const serviceFaultEnv = "RINGROBOTS_SERVICE_FAULT"

// TestServiceFaultHelper is the subprocess body: one service leg that
// solves (or resumes) the configured instance, reporting the outcome on
// stdout as "RESULT resumed=<bool> verdict=<hex>". Every leg, killed or
// not, also reports its store compactions as "COMPACTIONS <n>" (printed
// just before the SIGKILL on a crashing leg).
func TestServiceFaultHelper(t *testing.T) {
	if os.Getenv(serviceFaultEnv) != "1" {
		t.Skip("not a service fault-helper invocation")
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "service fault helper: "+format+"\n", args...)
		os.Exit(2)
	}
	atoi := func(name string) int {
		v, err := strconv.Atoi(os.Getenv(name))
		if err != nil {
			fail("bad %s=%q: %v", name, os.Getenv(name), err)
		}
		return v
	}
	cfg := Default(os.Getenv("RINGROBOTS_SERVICE_STORE"))
	cfg.Workers = 1
	cfg.CheckpointEvery = 2
	cfg.CompactAbove = atoi("RINGROBOTS_SERVICE_COMPACT")
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	var svc *Service
	reportCompactions := func() {
		fmt.Printf("COMPACTIONS %d\n", svc.MetricsSnapshot().StoreCompactions)
	}
	if crashAfter := int64(atoi("RINGROBOTS_SERVICE_CRASH_AFTER")); crashAfter > 0 {
		cfg.BranchHook = func(done int64) {
			if done >= crashAfter {
				reportCompactions()
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	svc, err := New(cfg)
	if err != nil {
		fail("New: %v", err)
	}
	inst := feasibility.Instance{N: atoi("RINGROBOTS_SERVICE_RING"), K: atoi("RINGROBOTS_SERVICE_ROBOTS")}
	resp := svc.Solve(context.Background(), Request{Instance: inst})
	if resp.Status != StatusVerdict || resp.Verdict == nil {
		fail("solve: status %v err %v", resp.Status, resp.Err)
	}
	reportCompactions()
	fmt.Printf("RESULT resumed=%v verdict=%s\n", resp.Resumed, hex.EncodeToString(verdictstore.EncodeVerdict(*resp.Verdict)))
	if err := svc.Shutdown(context.Background()); err != nil {
		fail("shutdown: %v", err)
	}
	os.Exit(0)
}

// TestServiceCrashResumeEquivalence drives the helper with kill -9 at
// randomized branch counts until the service serves a verdict, then
// compares it byte-for-byte with the uninterrupted solve.
func TestServiceCrashResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fault suite skipped under -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	const n, k = 7, 3
	inst := feasibility.Instance{N: n, K: k}
	// ExpansionUnits is effort accounting, not verdict content: a crash
	// re-does the work since the last checkpoint, so cumulative units
	// legitimately exceed the uninterrupted run. Everything else —
	// verdict, tier, survivor, TablesExplored — must be bit-identical.
	canon := func(v verdictstore.Verdict) string {
		v.ExpansionUnits = 0
		return hex.EncodeToString(verdictstore.EncodeVerdict(v))
	}
	canonHex := func(h string) string {
		raw, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("bad verdict hex %q: %v", h, err)
		}
		v, err := verdictstore.DecodeVerdict(raw)
		if err != nil {
			t.Fatalf("helper verdict does not decode: %v", err)
		}
		return canon(v)
	}
	want := canon(verdictstore.VerdictOf(solveDirect(t, inst)))
	storePath := filepath.Join(t.TempDir(), "store.log")
	rng := rand.New(rand.NewSource(11))
	kills, compactions := 0, 0
	var out []byte
	for spawns := 0; ; spawns++ {
		if spawns > 300 {
			t.Fatalf("service drain did not converge after %d spawns", spawns)
		}
		crashAfter := 3 + rng.Intn(7)
		cmd := exec.Command(exe, "-test.run", "^TestServiceFaultHelper$", "-test.v")
		cmd.Env = append(os.Environ(),
			serviceFaultEnv+"=1",
			"RINGROBOTS_SERVICE_STORE="+storePath,
			"RINGROBOTS_SERVICE_RING="+strconv.Itoa(n),
			"RINGROBOTS_SERVICE_ROBOTS="+strconv.Itoa(k),
			"RINGROBOTS_SERVICE_COMPACT=8", // compact aggressively so crashes land mid-rewrite too
			"RINGROBOTS_SERVICE_CRASH_AFTER="+strconv.Itoa(crashAfter),
		)
		out, err = cmd.CombinedOutput()
		for _, line := range strings.Split(string(out), "\n") {
			if c, ok := strings.CutPrefix(line, "COMPACTIONS "); ok {
				n, cerr := strconv.Atoi(c)
				if cerr != nil {
					t.Fatalf("bad compaction report %q", line)
				}
				compactions += n
			}
		}
		if err == nil {
			break
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
				kills++
				continue // crashed as injected; respawn to resume
			}
		}
		t.Fatalf("helper spawn %d failed: %v\n%s", spawns, err, out)
	}
	if kills == 0 {
		t.Errorf("no SIGKILL landed across the drain")
	}
	if compactions == 0 {
		t.Errorf("no store compaction ran across the drain; crashes never raced a rewrite")
	}
	var result string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "RESULT ") {
			result = line
			break
		}
	}
	if result == "" {
		t.Fatalf("helper produced no RESULT line:\n%s", out)
	}
	if !strings.Contains(result, "resumed=true") {
		t.Errorf("final leg did not resume the journaled drain: %s", result)
	}
	verdictHex := canonHex(result[strings.Index(result, "verdict=")+len("verdict="):])
	if verdictHex != want {
		t.Errorf("crash-riddled verdict differs from uninterrupted solve:\n got %s\nwant %s", verdictHex, want)
	}
	// The verdict is durable: a fresh service over the same store serves
	// it from cache without any solve.
	cfg := testConfig(t)
	cfg.StorePath = storePath
	svc := mustNew(t, cfg)
	defer drainService(t, svc)
	resp := svc.Solve(context.Background(), Request{Instance: inst})
	if resp.Status != StatusVerdict || !resp.Cached {
		t.Fatalf("restarted service did not serve the verdict from the store: %+v", resp)
	}
	if got := canon(*resp.Verdict); got != want {
		t.Errorf("stored verdict differs from uninterrupted solve:\n got %s\nwant %s", got, want)
	}
	t.Logf("%d kills and %d store compactions before verdict", kills, compactions)
}
