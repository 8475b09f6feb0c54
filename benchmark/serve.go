package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ringrobots/internal/service"
)

// server is one verdict service in its production shape
// (service.Default: 2 solve workers, 1 solver goroutine per solve, a
// checkpoint every 64 branches, compaction above 256 records, fsync on
// every append) behind an in-process HTTP server, with its store in a
// fresh directory.
type server struct {
	dir    string
	svc    *service.Service
	ts     *httptest.Server
	client *http.Client
}

func startServer(parent string, tr *tracer) (*server, error) {
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		return nil, err
	}
	cfg := service.Default(filepath.Join(dir, "verdicts.journal"))
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	if tr != nil {
		cfg.FS = timedFS{t: tr}
	}
	svc, err := service.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h := svc.Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	s := &server{
		dir: dir,
		svc: svc,
		ts:  httptest.NewServer(h),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	// Dial every client connection now, so no timed request pays for it.
	errs := make([]error, clients)
	fanOut(clients, func(c int) {
		resp, err := s.client.Get(s.ts.URL + "/healthz")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errs[c] = err
	})
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close stops the HTTP server, drains the service and deletes the store.
func (s *server) close() error {
	s.ts.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.svc.Shutdown(ctx)
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// solvePath is the /solve request for a query.
func solvePath(q query) string {
	v := url.Values{}
	v.Set("n", strconv.Itoa(q.N))
	v.Set("k", strconv.Itoa(q.K))
	if q.Cycle > 0 {
		v.Set("cycle", strconv.Itoa(q.Cycle))
	}
	if q.Tiers != nil {
		v.Set("tiers", joinInts(q.Tiers))
	}
	if q.Budget > 0 {
		v.Set("budget", strconv.Itoa(q.Budget))
	}
	return "/solve?" + v.Encode()
}

// get sends one request and returns its status, decoded body and the
// client-side latency up to the last body byte. A traced request
// records a round-trip span and passes its id to the handler wrapper.
func (s *server) get(path string, tr *tracer, probe bool, body any) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, s.ts.URL+path, nil)
	if err != nil {
		return 0, 0, err
	}
	var id int64
	if tr != nil {
		id = tr.newID()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		if probe {
			req.Header.Set(probeHeader, "1")
		}
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return 0, 0, err
	}
	if tr != nil && !probe {
		tr.record(id, 0, "http", "roundtrip", start, end, len(raw))
	}
	if err := json.Unmarshal(raw, body); err != nil {
		return resp.StatusCode, 0, fmt.Errorf("decoding %s reply: %w", path, err)
	}
	return resp.StatusCode, end.Sub(start), nil
}

// checkVerdict compares a 200 reply with the expected verdict.
func checkVerdict(body *service.SolveBody, want verdict) error {
	if body.Impossible == nil || body.Tier == nil {
		return fmt.Errorf("%s: reply has no verdict (status %q)", want.id(), body.Status)
	}
	if *body.Impossible != want.Impossible || *body.Tier != want.Tier {
		return fmt.Errorf("%s: served impossible=%v tier=%d, expected impossible=%v tier=%d",
			want.id(), *body.Impossible, *body.Tier, want.Impossible, want.Tier)
	}
	return nil
}

// fanOut runs fn for clients 0..n-1, each on its own goroutine, and waits.
func fanOut(n int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// passRand is the seeded source of pass i's request order.
func (b *bench) passRand(i int) *rand.Rand {
	return rand.New(rand.NewSource(b.opts.seed*1_000_003 + int64(i)))
}

// serveBase is what the three service workloads share: the pass's
// server and, in a traced phase, the /metricz deltas and the cache-hit
// probe that times the service's own per-request work.
type serveBase struct {
	b   *bench
	srv *server

	metricz         map[string]float64 // summed /metricz deltas of traced passes
	bytesPerVerdict float64            // store journal bytes per stored verdict, last traced pass
	probe           time.Duration      // summed handler time of cache-hit probes
	probes          int64
}

func (s *serveBase) setup(int) error {
	srv, err := startServer(s.b.dir, s.b.tr)
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

func (s *serveBase) teardown() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.close()
	s.srv = nil
	return err
}

func (s *serveBase) snapshot() (service.Snapshot, error) {
	var snap service.Snapshot
	code, _, err := s.srv.get("/metricz", nil, false, &snap)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/metricz returned %d", code)
	}
	return snap, err
}

// run runs a pass's operations. A traced pass wraps them with /metricz
// snapshots and follows them with one cache-hit probe per distinct
// instance served.
func (s *serveBase) run(ops func(), served []query) error {
	if s.b.tr == nil {
		ops()
		return nil
	}
	before, err := s.snapshot()
	if err != nil {
		return err
	}
	ops()
	after, err := s.snapshot()
	if err != nil {
		return err
	}
	if s.metricz == nil {
		s.metricz = map[string]float64{}
	}
	for name, d := range map[string]int64{
		"cache_hits":            after.CacheHits - before.CacheHits,
		"cache_misses":          after.CacheMisses - before.CacheMisses,
		"deduped":               after.Deduped - before.Deduped,
		"solves_started":        after.SolvesStarted - before.SolvesStarted,
		"suspended":             after.Suspended - before.Suspended,
		"resumed_drains":        after.ResumedDrains - before.ResumedDrains,
		"checkpoints_journaled": after.Checkpoints - before.Checkpoints,
		"rejected":              after.Rejected - before.Rejected,
		"shed":                  after.Shed - before.Shed,
	} {
		s.metricz[name] += float64(d)
	}
	if after.StoredVerdicts > 0 {
		s.bytesPerVerdict = float64(after.JournalBytes) / float64(after.StoredVerdicts)
	}
	hitBefore := s.b.tr.get("service", "probe")
	for _, q := range served {
		var body service.SolveBody
		code, _, err := s.srv.get(solvePath(q), s.b.tr, true, &body)
		if err != nil {
			return err
		}
		if code != http.StatusOK || !body.Cached {
			return fmt.Errorf("cache-hit probe of %s: status %d cached=%v", q.id(), code, body.Cached)
		}
	}
	hit := s.b.tr.get("service", "probe")
	s.probe += hit.d - hitBefore.d
	s.probes += hit.n - hitBefore.n
	return nil
}

// attributeHTTP fills what every service workload attributes the same
// way: the HTTP layer is the round trip outside the handler, the store
// is every timed filesystem operation, and the service's own work per
// request is the cache-hit probe's handler time. It returns the summed
// handler time of the workload's requests.
func (s *serveBase) attributeHTTP(a *attribution) time.Duration {
	rt := a.b.tr.get("http", "roundtrip")
	h := a.b.tr.get("service", "handler")
	st := a.b.tr.sumLayer("store")
	a.self["http"] = rt.d - h.d
	a.self["store"] = st.d
	if s.probes > 0 {
		a.self["service"] = time.Duration(float64(s.probe) / float64(s.probes) * a.ops())
	}
	ops := a.ops()
	for name, v := range s.metricz {
		a.counts["service."+name+"_per_op"] = v / ops
	}
	writes := a.b.tr.get("store", "write")
	a.counts["store.writes_per_op"] = float64(writes.n) / ops
	a.counts["store.write_bytes_per_op"] = float64(writes.bytes) / ops
	a.counts["store.fsyncs_per_op"] = float64(a.b.tr.get("store", "fsync").n) / ops
	a.counts["store.renames_per_op"] = float64(a.b.tr.get("store", "rename").n) / ops
	a.counts["store.bytes_per_verdict"] = s.bytesPerVerdict
	return h.d
}

// serveHit: every request is a cache hit on a prewarmed store.
type serveHit struct {
	serveBase
	band  []verdict
	paths []string
	total int // requests per pass
}

func newServeHit(b *bench) (runner, error) {
	grid := byID(b.exp.Grid)
	s := &serveHit{serveBase: serveBase{b: b}, total: 20_000}
	if b.opts.smoke {
		s.total = 200
	}
	for n := 3; n <= 9; n++ {
		for k := 1; k < n; k++ {
			q := query{N: n, K: k}
			v, ok := grid[q.id()]
			if !ok {
				return nil, fmt.Errorf("%s: no expected verdict for paper-band instance %s", verdictsPath, q.id())
			}
			v.query = q // requested without cycle or tiers: the service's defaults
			s.band = append(s.band, v)
			s.paths = append(s.paths, solvePath(q))
		}
	}
	return s, nil
}

// setup starts a service and prewarms it by solving the paper band.
func (s *serveHit) setup(i int) error {
	if err := s.serveBase.setup(i); err != nil {
		return err
	}
	for j, v := range s.band {
		var body service.SolveBody
		code, _, err := s.srv.get(s.paths[j], nil, false, &body)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("prewarming %s: status %d: %s", v.id(), code, body.Error)
		}
		if err := checkVerdict(&body, v); err != nil {
			return fmt.Errorf("prewarming: %w", err)
		}
	}
	return nil
}

func (s *serveHit) work(i int) error {
	rng := s.b.passRand(i)
	seq := make([]int, s.total)
	for j := range seq {
		seq[j] = rng.Intn(len(s.band))
	}
	ops := func() {
		var next atomic.Int64
		fanOut(s.b.clients, func(int) {
			for {
				j := next.Add(1) - 1
				if j >= int64(len(seq)) {
					return
				}
				v := s.band[seq[j]]
				var body service.SolveBody
				code, lat, err := s.srv.get(s.paths[seq[j]], s.b.tr, false, &body)
				switch {
				case err != nil:
					s.b.fail(false, "%s: %v", v.id(), err)
				case code != http.StatusOK || !body.Cached:
					s.b.fail(false, "%s: status %d cached=%v", v.id(), code, body.Cached)
				default:
					if err := checkVerdict(&body, v); err != nil {
						s.b.fail(true, "%v", err)
						continue
					}
					s.b.op(lat)
				}
			}
		})
	}
	return s.run(ops, nil)
}

func (s *serveHit) attribute(a *attribution) error {
	h := s.attributeHTTP(a)
	// Every request is the hit path itself: the handler's time is the
	// service's, less any store operation (there should be none).
	a.self["service"] = h - a.self["store"]
	return nil
}

// serveCold: each grid instance is requested once, into an empty store.
type serveCold struct {
	serveBase
	grid []verdict
}

func newServeCold(b *bench) (runner, error) {
	s := &serveCold{serveBase: serveBase{b: b}}
	for _, v := range b.exp.Grid {
		if b.opts.smoke && v.N > 5 {
			continue
		}
		s.grid = append(s.grid, v)
	}
	return s, nil
}

// familyOrder requests the grid one (n,k) family at a time, n and k
// ascending, in seeded order within each family. Every compaction
// rewrites the whole store, so what a checkpoint-heavy instance costs
// depends on how many verdicts precede it; a full shuffle would make
// the pass's work depend on the seed by ±10%.
func familyOrder(grid []verdict, rng *rand.Rand) []int {
	order := make([]int, 0, len(grid))
	for lo := 0; lo < len(grid); {
		hi := lo
		for hi < len(grid) && grid[hi].N == grid[lo].N && grid[hi].K == grid[lo].K {
			hi++
		}
		for _, j := range rng.Perm(hi - lo) {
			order = append(order, lo+j)
		}
		lo = hi
	}
	return order
}

func (s *serveCold) work(i int) error {
	order := familyOrder(s.grid, s.b.passRand(i))
	ops := func() {
		var next atomic.Int64
		fanOut(s.b.clients, func(int) {
			for {
				j := next.Add(1) - 1
				if j >= int64(len(order)) {
					return
				}
				v := s.grid[order[j]]
				var body service.SolveBody
				code, lat, err := s.srv.get(solvePath(v.query), s.b.tr, false, &body)
				switch {
				case err != nil:
					s.b.fail(false, "%s: %v", v.id(), err)
				case code != http.StatusOK:
					s.b.fail(false, "%s: status %d: %s", v.id(), code, body.Error)
				default:
					if err := checkVerdict(&body, v); err != nil {
						s.b.fail(true, "%v", err)
						continue
					}
					s.b.op(lat)
				}
			}
		})
	}
	return s.run(ops, queries(s.grid))
}

func queries(vs []verdict) []query {
	qs := make([]query, len(vs))
	for i, v := range vs {
		qs[i] = v.query
	}
	return qs
}

func (s *serveCold) attribute(a *attribution) error {
	s.attributeHTTP(a)
	rp, err := replay(queries(s.grid), "", 1)
	if err != nil {
		return err
	}
	rp.attribute(a)
	return nil
}

// serveResume: budget-limited requests suspend to checkpoints, and each
// chain is retried until it returns its verdict.
type serveResume struct {
	serveBase
	chains []verdict
}

func newServeResume(b *bench) (runner, error) {
	s := &serveResume{serveBase: serveBase{b: b}}
	for _, v := range b.exp.Chains {
		if b.opts.smoke && v.N != 9 {
			continue
		}
		s.chains = append(s.chains, v)
	}
	return s, nil
}

// legCap bounds a chain at ten times the legs it took when the verdict
// table was generated; a chain that reaches it counts as failed.
func legCap(v verdict) int { return 10 * v.Legs }

// work runs every chain to its verdict. Clients take chains from a
// shared queue, send one leg, and put a suspended chain back at the end,
// so both clients stay busy until the last legs.
func (s *serveResume) work(i int) error {
	order := s.b.passRand(i).Perm(len(s.chains))
	type chain struct {
		v    verdict
		path string
		legs int
	}
	var mu sync.Mutex
	queue := make([]*chain, len(order))
	for j, idx := range order {
		v := s.chains[idx]
		queue[j] = &chain{v: v, path: solvePath(v.query)}
	}
	pop := func() *chain {
		mu.Lock()
		defer mu.Unlock()
		if len(queue) == 0 {
			return nil
		}
		c := queue[0]
		queue = queue[1:]
		return c
	}
	push := func(c *chain) {
		mu.Lock()
		queue = append(queue, c)
		mu.Unlock()
	}
	ops := func() {
		fanOut(s.b.clients, func(int) {
			for c := pop(); c != nil; c = pop() {
				var body service.SolveBody
				code, lat, err := s.srv.get(c.path, s.b.tr, false, &body)
				c.legs++
				switch {
				case err != nil:
					s.b.fail(false, "%s: %v", c.v.id(), err)
				case code == http.StatusAccepted && c.legs >= legCap(c.v):
					s.b.fail(false, "resume chain %s budget %d did not converge: %d legs (cap %d)",
						c.v.id(), c.v.Budget, c.legs, legCap(c.v))
				case code == http.StatusAccepted:
					s.b.op(lat)
					push(c)
				case code != http.StatusOK:
					s.b.fail(false, "%s leg %d: status %d: %s", c.v.id(), c.legs, code, body.Error)
				default:
					if err := checkVerdict(&body, c.v); err != nil {
						s.b.fail(true, "%v", err)
						continue
					}
					s.b.op(lat)
				}
			}
		})
	}
	return s.run(ops, queries(s.chains))
}

func (s *serveResume) attribute(a *attribution) error {
	s.attributeHTTP(a)
	rp, err := replay(queries(s.chains), "", 3)
	if err != nil {
		return err
	}
	rp.attribute(a)
	return nil
}
