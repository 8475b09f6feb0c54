package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ringrobots/internal/feasibility"
	"ringrobots/internal/service"
)

// drainBin is the cmd/drain binary the tests drive, built once by
// TestMain: exit code 3 (suspended) is only observable on a built
// binary, since `go run` collapses every nonzero exit to 1.
var drainBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "drain-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	drainBin = filepath.Join(dir, "drain")
	if out, err := exec.Command("go", "build", "-o", drainBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building cmd/drain: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run is one finished drain invocation.
type run struct {
	stdout, stderr string
	code           int // -1: killed by a signal
}

func drain(t *testing.T, args ...string) run {
	t.Helper()
	cmd := exec.Command(drainBin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("drain %v: %v", args, err)
	}
	return run{stdout: stdout.String(), stderr: stderr.String(), code: cmd.ProcessState.ExitCode()}
}

// line returns the stdout line starting with prefix, or "".
func (r run) line(prefix string) string {
	for _, l := range strings.Split(r.stdout, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}

// want is the verdict line of an uninterrupted single-worker solve.
func want(t *testing.T, n, k int) string {
	t.Helper()
	s := feasibility.Instance{N: n, K: k}.Solver()
	s.Workers = 1
	res, err := s.Solve()
	if err != nil {
		t.Fatalf("direct solve (%d,%d): %v", n, k, err)
	}
	return fmt.Sprintf("n=%d k=%d impossible=%v tier=%d tables=%d", n, k, res.Impossible, res.Tier, res.TablesExplored)
}

// verdictOf strips the units and survivor fields from a verdict line:
// a resumed or crashed drain re-does work since its last checkpoint, so
// only the units differ from an uninterrupted run.
func verdictOf(line string) string {
	_, v, _ := strings.Cut(line, ": ")
	v, _, _ = strings.Cut(v, " units=")
	return v
}

func TestFreshRunThenRerunIsIdempotent(t *testing.T) {
	j := filepath.Join(t.TempDir(), "d.journal")
	first := drain(t, "-n", "7", "-k", "4", "-journal", j)
	if first.code != 0 || first.line("verdict: ") == "" {
		t.Fatalf("fresh run: exit %d\n%s%s", first.code, first.stdout, first.stderr)
	}
	if got, w := verdictOf(first.line("verdict: ")), want(t, 7, 4); got != w {
		t.Fatalf("fresh run verdict %q, want %q", got, w)
	}
	again := drain(t, "-n", "7", "-k", "4", "-journal", j)
	if again.code != 0 {
		t.Fatalf("rerun: exit %d\n%s%s", again.code, again.stdout, again.stderr)
	}
	// No solve: only the stored verdict is printed, nothing is resumed.
	wantOut := "drain already finished: " + strings.TrimPrefix(first.line("verdict: "), "verdict: ") + "\n"
	if again.stdout != wantOut || again.stderr != "" {
		t.Fatalf("rerun printed %q (stderr %q), want exactly %q", again.stdout, again.stderr, wantOut)
	}
}

// TestJournalKeyedByInstance: a journal holding a finished (7,3) drain
// must not answer a (7,4) drain with (7,3)'s verdict.
func TestJournalKeyedByInstance(t *testing.T) {
	j := filepath.Join(t.TempDir(), "d.journal")
	if r := drain(t, "-n", "7", "-k", "3", "-journal", j); r.code != 0 {
		t.Fatalf("(7,3): exit %d\n%s%s", r.code, r.stdout, r.stderr)
	}
	r := drain(t, "-n", "7", "-k", "4", "-journal", j)
	if r.code != 0 || r.line("verdict: ") == "" {
		t.Fatalf("(7,4) on a journal with a finished (7,3): exit %d, want a fresh verdict\n%s%s", r.code, r.stdout, r.stderr)
	}
	if got, w := verdictOf(r.line("verdict: ")), want(t, 7, 4); got != w {
		t.Fatalf("(7,4) verdict %q, want %q", got, w)
	}
	// Both drains stay finished in the one journal.
	for _, k := range []string{"3", "4"} {
		r := drain(t, "-n", "7", "-k", k, "-journal", j)
		if !strings.HasPrefix(r.line("drain already finished: "), "drain already finished: n=7 k="+k+" ") {
			t.Fatalf("(7,%s) rerun: %q, want its own stored verdict", k, r.stdout)
		}
	}
}

func TestBudgetChainReachesUninterruptedVerdict(t *testing.T) {
	j := filepath.Join(t.TempDir(), "d.journal")
	suspended := 0
	for leg := 0; ; leg++ {
		if leg == 50 {
			t.Fatal("budget chain did not finish in 50 legs")
		}
		r := drain(t, "-n", "7", "-k", "4", "-workers", "1", "-budget", "300", "-journal", j)
		if r.code == 3 {
			if r.line("budget exhausted at tier ") == "" {
				t.Fatalf("leg %d: exit 3 without a budget line\n%s", leg, r.stdout)
			}
			if leg > 0 && !strings.Contains(r.stderr, "msg=resuming") {
				t.Fatalf("leg %d did not resume the journaled checkpoint\n%s", leg, r.stderr)
			}
			suspended++
			continue
		}
		if r.code != 0 {
			t.Fatalf("leg %d: exit %d\n%s%s", leg, r.code, r.stdout, r.stderr)
		}
		if got, w := verdictOf(r.line("verdict: ")), want(t, 7, 4); got != w {
			t.Fatalf("chain verdict %q, want the uninterrupted %q", got, w)
		}
		break
	}
	if suspended == 0 {
		t.Fatal("no leg suspended; the budget no longer exercises resume")
	}
}

func TestCrashThenRerunReachesVerdict(t *testing.T) {
	j := filepath.Join(t.TempDir(), "d.journal")
	r := drain(t, "-n", "7", "-k", "4", "-checkpoint-every", "2", "-crash-after-branches", "6", "-journal", j)
	if r.code != -1 {
		t.Fatalf("crashing run: exit %d, want death by SIGKILL\n%s%s", r.code, r.stdout, r.stderr)
	}
	r = drain(t, "-n", "7", "-k", "4", "-journal", j)
	if r.code != 0 || !strings.Contains(r.stderr, "msg=resuming") {
		t.Fatalf("rerun after the crash: exit %d, want a resumed verdict\n%s%s", r.code, r.stdout, r.stderr)
	}
	if got, w := verdictOf(r.line("verdict: ")), want(t, 7, 4); got != w {
		t.Fatalf("verdict after the crash %q, want %q", got, w)
	}
}

func TestSIGINTSuspendsAndRerunResumes(t *testing.T) {
	j := filepath.Join(t.TempDir(), "d.journal")
	// (11,3) takes seconds; interrupt it once its first checkpoint is
	// journaled.
	cmd := exec.Command(drainBin, "-n", "11", "-k", "3", "-journal", j)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(j); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("no checkpoint journaled within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != 3 || !strings.Contains(stdout.String(), "suspended (context canceled)") {
		t.Fatalf("SIGINT: exit %d, want 3 (suspended)\n%s", code, stdout.String())
	}
	r := drain(t, "-n", "11", "-k", "3", "-budget", "2000", "-journal", j)
	if r.code != 3 || !strings.Contains(r.stderr, "msg=resuming") {
		t.Fatalf("rerun: exit %d, want a resumed leg suspended by its budget\n%s%s", r.code, r.stdout, r.stderr)
	}
}

// TestServiceServesDrainedJournal: a finished drain journal is a
// verdict store the service serves without solving.
func TestServiceServesDrainedJournal(t *testing.T) {
	j := filepath.Join(t.TempDir(), "d.journal")
	if r := drain(t, "-n", "7", "-k", "4", "-journal", j); r.code != 0 {
		t.Fatalf("drain: exit %d\n%s%s", r.code, r.stdout, r.stderr)
	}
	cfg := service.Default(j)
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service over the drained journal: %v", err)
	}
	defer svc.Shutdown(context.Background())
	resp := svc.Solve(context.Background(), service.Request{Instance: feasibility.Instance{N: 7, K: 4}})
	if resp.Status != service.StatusVerdict || !resp.Cached {
		t.Fatalf("solve = %v cached=%v (%v), want a cached verdict", resp.Status, resp.Cached, resp.Err)
	}
	v := resp.Verdict
	got := fmt.Sprintf("n=7 k=4 impossible=%v tier=%d tables=%d", v.Impossible, v.Tier, v.TablesExplored)
	if w := want(t, 7, 4); got != w {
		t.Fatalf("served %q, want %q", got, w)
	}
}

// TestNoHTTPDependency: net/http's initialisation roughly doubles the
// resident memory of a small drain, so the binary must not link it.
func TestNoHTTPDependency(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "net/http" {
			t.Fatal("cmd/drain depends on net/http")
		}
	}
}
