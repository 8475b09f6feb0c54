package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runBenchdiff builds the command and runs it on two reports, returning
// its exit code and combined output.
func runBenchdiff(t *testing.T, oldJSON, newJSON string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchdiff")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	for path, body := range map[string]string{oldPath: oldJSON, newPath: newJSON} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := exec.Command(bin, oldPath, newPath).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatal(err)
	return 0, ""
}

func TestNoCommonRowsFails(t *testing.T) {
	oldJSON := `{"date":"old","benchmarks":[{"name":"TransitionDiagrams/fig5_k4_n8","ns_per_op":5000}]}`
	newJSON := `{"date":"new","benchmarks":[{"name":"TransitionDiagram/fig5_k4_n8","ns_per_op":5000}]}`
	code, out := runBenchdiff(t, oldJSON, newJSON)
	if code != 2 || !strings.Contains(out, "no benchmark name in common") {
		t.Fatalf("exit %d, want 2 with a no-common-rows message; output:\n%s", code, out)
	}
}

func TestCommonRowPasses(t *testing.T) {
	oldJSON := `{"date":"old","benchmarks":[{"name":"Gathering/n=24/k=8","ns_per_op":5000},{"name":"Gone","ns_per_op":10}]}`
	newJSON := `{"date":"new","benchmarks":[{"name":"Gathering/n=24/k=8","ns_per_op":5100}]}`
	code, out := runBenchdiff(t, oldJSON, newJSON)
	if code != 0 || !strings.Contains(out, "no regressions beyond threshold") {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
}
