package main

import (
	"math"
	"strings"
	"testing"
)

// canned is `go test -bench -benchmem -count 2` output in the shape go
// test prints it: header lines, a -2 GOMAXPROCS suffix, custom metrics
// between ns/op and B/op, sub-nanosecond floats, a benchmark log line,
// and the PASS/ok trailer.
const canned = `goos: linux
goarch: amd64
pkg: ringrobots
cpu: Intel(R) Xeon(R) Processor
BenchmarkSupermin/n=16/k=8-2   	  100000	        13.65 ns/op	       0 B/op	       0 allocs/op
BenchmarkSupermin/n=16/k=8-2   	  120000	        10.65 ns/op	       0 B/op	       0 allocs/op
BenchmarkSuperminCold/n=256/k=32-2   	   50000	      2400 ns/op	    1536 B/op	       3 allocs/op
BenchmarkSuperminCold/n=256/k=32-2   	   40000	      2600 ns/op	    1537 B/op	       4 allocs/op
BenchmarkSuperminCold/n=256/k=32-2   	   60000	      2000 ns/op	    1535 B/op	       2 allocs/op
BenchmarkMCSimSearch/n=12/k=6/lanes=256/workers=1-2         	      70	  16790981 ns/op	     15246 samples/sec	  62448764 steps/sec	       0 B/op	       0 allocs/op
BenchmarkMCSimSearch/n=12/k=6/lanes=256/workers=1-2         	      69	  17021285 ns/op	     15040 samples/sec	  61603809 steps/sec	       0 B/op	       0 allocs/op
BenchmarkCached-2   	1000000000	         0.2500 ns/op	       0 B/op	       0 allocs/op
BenchmarkCached-2   	1000000000	         0.7500 ns/op	       0 B/op	       0 allocs/op
    bench_test.go:42: a benchmark log line
PASS
ok  	ringrobots	12.345s
`

func TestParseBench(t *testing.T) {
	rows, err := parseBench(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		name          string
		iters         int
		ns, min, max  float64
		stddev        float64
		allocs, bytes int64
		repeats       int
	}
	wants := []want{
		// Even count: the lower-middle (faster) run is the median.
		{"Supermin/n=16/k=8", 120000, 10.65, 10.65, 13.65, 1.5, 0, 0, 2},
		// Odd count: the middle run, with its own iterations and allocs.
		// Population stddev around the mean 7000/3: deviations 200/3,
		// 800/3 and -1000/3.
		{"SuperminCold/n=256/k=32", 50000, 2400, 2000, 2600, math.Sqrt(1680000.0 / 27), 3, 1536, 3},
		{"MCSimSearch/n=12/k=6/lanes=256/workers=1", 70, 16790981, 16790981, 17021285, 115152, 0, 0, 2},
		{"Cached", 1000000000, 0.25, 0.25, 0.75, 0.25, 0, 0, 2},
	}
	if len(rows) != len(wants) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(wants), rows)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for i, w := range wants {
		r := rows[i]
		if r.Name != w.name || r.Iterations != w.iters || r.Repeats != w.repeats ||
			r.AllocsPerOp != w.allocs || r.BytesPerOp != w.bytes {
			t.Errorf("row %d = %+v, want %+v", i, r, w)
		}
		if !near(r.NsPerOp, w.ns) || !near(r.NsPerOpMin, w.min) || !near(r.NsPerOpMax, w.max) || !near(r.NsPerOpStdd, w.stddev) {
			t.Errorf("row %s: ns/op %g [%g, %g] ±%g, want %g [%g, %g] ±%g",
				r.Name, r.NsPerOp, r.NsPerOpMin, r.NsPerOpMax, r.NsPerOpStdd, w.ns, w.min, w.max, w.stddev)
		}
	}
}

func TestParseBenchRejectsRowWithoutNsPerOp(t *testing.T) {
	in := canned + "BenchmarkBroken-2   	     100	     512 B/op	       3 allocs/op\n"
	if rows, err := parseBench(strings.NewReader(in)); err == nil {
		t.Fatalf("parsed a row with no ns/op: %+v", rows)
	}
}
