package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ringrobots/internal/faultfs"
)

// The traced run records spans from this package only, around the calls
// it makes into each layer: the HTTP client round trip, the service's
// handler (a wrapper around Service.Handler), every store filesystem
// operation (a timing faultfs.FS passed as service.Config.FS), and the
// solver and checkpoint calls of the direct replay. Spans stay in memory
// and are written when the run ends.

// maxSpans bounds the spans kept for the trace file; the per-name
// totals the per-layer metrics come from keep counting past it.
const maxSpans = 200_000

// spanHeader carries the client's span id to the handler wrapper, so a
// handler span names the round trip that caused it.
const spanHeader = "X-Bench-Span"

// probeHeader marks requests the traced run sends to measure the
// service's cache-hit path; they are not workload operations.
const probeHeader = "X-Bench-Probe"

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

// total is the summed duration, count and byte volume of one span name.
type total struct {
	d     time.Duration
	n     int64
	bytes int64
}

// tracer collects spans while on. All methods are safe for concurrent
// use.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
	totals  map[string]*total // keyed by layer + "." + name

	// The store's filesystem operations, for compaction gaps (fsOp).
	fsMu       sync.Mutex
	fsLast     time.Time // end of the previous operation
	compacting bool
	renamed    bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: make(map[string]*total)}
}

// start turns the tracer on for a pass.
func (t *tracer) start() {
	t.fsMu.Lock()
	t.fsLast = time.Time{}
	t.compacting = false
	t.fsMu.Unlock()
	t.on.Store(true)
}

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

// record adds a finished span when the tracer is on; id 0 assigns one.
func (t *tracer) record(id, parent int64, layer, name string, start, end time.Time, bytes int) {
	if t == nil || !t.on.Load() {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	key := layer + "." + name
	t.mu.Lock()
	defer t.mu.Unlock()
	tot := t.totals[key]
	if tot == nil {
		tot = &total{}
		t.totals[key] = tot
	}
	tot.d += end.Sub(start)
	tot.n++
	tot.bytes += int64(bytes)
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Bytes: bytes,
	})
}

// get returns the total of one span name (zero when never recorded).
func (t *tracer) get(layer, name string) total {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[layer+"."+name]; tot != nil {
		return *tot
	}
	return total{}
}

// sumLayer adds up every span name recorded under a layer.
func (t *tracer) sumLayer(layer string) total {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out total
	for key, tot := range t.totals {
		if strings.HasPrefix(key, layer+".") {
			out.d += tot.d
			out.n += tot.n
			out.bytes += tot.bytes
		}
	}
	return out
}

// traceFile is the JSON document a traced run writes.
type traceFile struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	LayersMs     map[string]float64 `json:"self_ms"`
	EndToEndMs   float64            `json:"end_to_end_ms"`
	Spans        []span             `json:"spans"`
	DroppedSpans int                `json:"dropped_spans"`
}

func (t *tracer) write(path, workload string, seed int64, self map[string]time.Duration, e2e time.Duration) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := traceFile{
		Workload: workload, Seed: seed, LayersMs: map[string]float64{},
		EndToEndMs: ms(e2e), Spans: t.spans, DroppedSpans: t.dropped,
	}
	for layer, d := range self {
		doc.LayersMs[layer] = ms(d)
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedHandler wraps the service's handler with a span per request.
func tracedHandler(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		name := "handler"
		switch {
		case r.Header.Get(probeHeader) != "":
			name = "probe"
		case r.URL.Path != "/solve":
			name = "other"
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t.record(0, parent, "service", name, start, time.Now(), 0)
	})
}

// fsOp records one store filesystem operation. A compaction does part
// of its work between filesystem calls: it re-encodes every live record
// before creating the temp file, frames each record between writes, and
// fsyncs the directory (opened directly, not through the FS seam)
// between the rename and reopening the journal. Those gaps, from the
// operation before the temp file's creation to the reopen, are recorded
// as the store's "compact" spans. The store serializes its operations
// under one lock, so consecutive operations belong to one store call
// sequence.
func (t *tracer) fsOp(name string, start, end time.Time, bytes int) {
	if !t.on.Load() {
		return
	}
	t.record(0, 0, "store", name, start, end, bytes)
	t.fsMu.Lock()
	defer t.fsMu.Unlock()
	switch {
	case name == "create":
		if !t.fsLast.IsZero() {
			t.record(0, 0, "store", "compact", t.fsLast, start, 0)
		}
		t.compacting, t.renamed = true, false
	case t.compacting:
		t.record(0, 0, "store", "compact", t.fsLast, start, 0)
		switch {
		case name == "rename":
			t.renamed = true
		case name == "open" && t.renamed:
			t.compacting = false
		}
	}
	t.fsLast = end
}

// timedFS is the store's filesystem with a span around every operation.
type timedFS struct {
	faultfs.OS
	t *tracer
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	start := time.Now()
	file, err := f.OS.OpenFile(name, flag, perm)
	f.t.fsOp("open", start, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, t: f.t}, nil
}

func (f timedFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	start := time.Now()
	file, err := f.OS.CreateTemp(dir, pattern)
	f.t.fsOp("create", start, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, t: f.t}, nil
}

func (f timedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	buf, err := f.OS.ReadFile(name)
	f.t.fsOp("read", start, time.Now(), len(buf))
	return buf, err
}

func (f timedFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := f.OS.Rename(oldpath, newpath)
	f.t.fsOp("rename", start, time.Now(), 0)
	return err
}

func (f timedFS) Remove(name string) error {
	start := time.Now()
	err := f.OS.Remove(name)
	f.t.fsOp("remove", start, time.Now(), 0)
	return err
}

type timedFile struct {
	faultfs.File
	t *tracer
}

func (f timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.t.fsOp("write", start, time.Now(), n)
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.fsOp("fsync", start, time.Now(), 0)
	return err
}

func (f timedFile) Truncate(size int64) error {
	start := time.Now()
	err := f.File.Truncate(size)
	f.t.fsOp("truncate", start, time.Now(), 0)
	return err
}

func (f timedFile) Close() error {
	start := time.Now()
	err := f.File.Close()
	f.t.fsOp("close", start, time.Now(), 0)
	return err
}
