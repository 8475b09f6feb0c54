package service

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The HTTP/JSON surface:
//
//	GET /solve?n=9&k=5[&budget=U][&timeout=30s][&tiers=0,2][&cycle=24]
//	GET /metricz
//	GET /healthz
//
// /solve returns 200 with the verdict, 202 when the solve suspended to
// a journaled checkpoint (retry the same request to resume — the
// Retry-After header suggests when), 429 when load-shed, 503 while
// draining or degraded (read-only after a storage failure; cached
// verdicts still return 200), 400 on invalid parameters (the body
// lists every problem at once). Identical concurrent requests are
// answered by one solve. /healthz reports 200 "ok" when healthy and
// 503 "degraded: <reason>" in read-only mode.

// SolveBody is the JSON body of a /solve response.
type SolveBody struct {
	Key    string `json:"key"` // hex instance key (content address)
	N      int    `json:"n"`
	K      int    `json:"k"`
	Status string `json:"status"`
	// Verdict fields, present when status == "verdict".
	Impossible     *bool  `json:"impossible,omitempty"`
	Tier           *int   `json:"tier,omitempty"`
	TablesExplored int    `json:"tables_explored,omitempty"`
	ExpansionUnits int64  `json:"expansion_units,omitempty"`
	Survivor       bool   `json:"survivor,omitempty"`
	SurvivorSize   int    `json:"survivor_size,omitempty"`
	Cached         bool   `json:"cached,omitempty"`
	Resumed        bool   `json:"resumed,omitempty"`
	RetryAfterSec  int    `json:"retry_after_sec,omitempty"`
	Error          string `json:"error,omitempty"`
}

var statusCodes = map[Status]int{
	StatusVerdict:    http.StatusOK,
	StatusSuspended:  http.StatusAccepted,
	StatusOverloaded: http.StatusTooManyRequests,
	StatusDraining:   http.StatusServiceUnavailable,
	StatusInvalid:    http.StatusBadRequest,
	StatusError:      http.StatusInternalServerError,
	StatusDegraded:   http.StatusServiceUnavailable,
}

// Handler returns the service's HTTP mux with request-id logging.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/metricz", s.handleMetricz)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		if reason, degraded := s.Degraded(); degraded {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "degraded: %s\n", reason)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return s.withRequestID(mux)
}

var reqCounter atomic.Int64

// withRequestID tags every request with a monotone id and logs
// method, path, status and latency through the structured logger.
func (s *Service) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := reqCounter.Add(1)
		start := time.Now()
		rw := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rw, r)
		s.log.Info("request", "reqid", id, "method", r.Method, "path", r.URL.Path,
			"query", r.URL.RawQuery, "code", rw.code, "ms", ms(time.Since(start)))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// parseSolveRequest builds a Request from query parameters, collecting
// every malformed parameter into one aggregated error.
func parseSolveRequest(q map[string][]string) (Request, error) {
	get := func(name string) string {
		if vs := q[name]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	var errs []error
	intParam := func(name string, required bool) int {
		raw := get(name)
		if raw == "" {
			if required {
				errs = append(errs, fmt.Errorf("missing required parameter %q", name))
			}
			return 0
		}
		v, err := strconv.Atoi(raw)
		if err != nil {
			errs = append(errs, fmt.Errorf("parameter %q: %q is not an integer", name, raw))
		}
		return v
	}
	var req Request
	req.Instance.N = intParam("n", true)
	req.Instance.K = intParam("k", true)
	req.Instance.MaxCycleLen = intParam("cycle", false)
	if raw := get("tiers"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				errs = append(errs, fmt.Errorf("parameter %q: %q is not an integer tier", "tiers", part))
				continue
			}
			req.Instance.PendingTiers = append(req.Instance.PendingTiers, v)
		}
	}
	req.Budget = intParam("budget", false)
	if raw := get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			errs = append(errs, fmt.Errorf("parameter %q: %q is not a duration", "timeout", raw))
		}
		req.Timeout = d
	}
	if len(errs) > 0 {
		return Request{}, errors.Join(errs...)
	}
	return req, nil
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, err := parseSolveRequest(r.URL.Query())
	var resp Response
	if err != nil {
		resp = Response{Status: StatusInvalid, Err: err}
	} else {
		resp = s.Solve(r.Context(), req)
	}
	body := SolveBody{
		N:      req.Instance.N,
		K:      req.Instance.K,
		Status: resp.Status.String(),
	}
	if err == nil {
		body.Key = hex.EncodeToString([]byte(req.Instance.Key()))
	}
	if resp.Verdict != nil {
		imp, tier := resp.Verdict.Impossible, resp.Verdict.Tier
		body.Impossible = &imp
		body.Tier = &tier
		body.TablesExplored = resp.Verdict.TablesExplored
		body.ExpansionUnits = resp.Verdict.ExpansionUnits
		body.Survivor = resp.Verdict.Survivor != nil
		body.SurvivorSize = len(resp.Verdict.Survivor)
	}
	body.Cached = resp.Cached
	body.Resumed = resp.Resumed
	if resp.Err != nil {
		body.Error = resp.Err.Error()
	}
	if resp.RetryAfter > 0 {
		sec := int(resp.RetryAfter.Round(time.Second) / time.Second)
		if sec < 1 {
			sec = 1
		}
		body.RetryAfterSec = sec
		w.Header().Set("Retry-After", strconv.Itoa(sec))
	}
	writeJSON(w, statusCodes[resp.Status], body)
}

func (s *Service) handleMetricz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
