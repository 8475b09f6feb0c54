package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the workload child process,
// which the benchmark starts by re-executing its own binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// TestSmoke runs every workload on small inputs, untraced and traced,
// and checks that each reports every metric BENCHMARK.json names and
// that no operation fails.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the registry", w.Name)
		}
	}

	drain := filepath.Join(t.TempDir(), "drain")
	if out, err := exec.Command("go", "build", "-o", drain, "ringrobots/cmd/drain").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/drain: %v\n%s", err, out)
	}
	for trace, want := range [][]struct{ Name string }{sp.EndToEnd, sp.PerLayer} {
		var stdout, stderr bytes.Buffer
		code := parentMain([]string{
			"-workload", "all", "-smoke", "-seconds", "0.05", "-trace", strconv.Itoa(trace),
			"-drain-bin", drain, "-work-dir", t.TempDir(), "-pkg-dir", ".",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace=%d: exit %d\nstdout:\n%s\nstderr:\n%s", trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var results map[string]result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &results); err != nil {
			t.Fatalf("trace=%d: last line is not the results object: %v", trace, err)
		}
		for _, w := range workloads {
			res, ok := results[w.name]
			if !ok {
				t.Errorf("trace=%d: no result for %s", trace, w.name)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("trace=%d %s: correct=%v attempted=%d failed=%d", trace, w.name, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("trace=%d %s: metric %s missing", trace, w.name, m.Name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("trace=%d %s: %d metrics reported, BENCHMARK.json lists %d", trace, w.name, len(res.Metrics), len(want))
			}
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
		{[]float64{4, 1, 2}, 1, 2, 4},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
