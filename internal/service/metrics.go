package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringrobots/internal/verdictstore"
)

// Metrics is the service's operational counter set, exposed as JSON by
// the /metricz handler together with the store's own counters.
// Counters are atomics; the latency reservoir is a mutex-guarded ring
// of the most recent solve latencies, from which percentiles are
// computed on demand.
type Metrics struct {
	cacheHits       atomic.Int64 // served from the verdict store
	cacheMisses     atomic.Int64 // required a solve (or attach to one)
	deduped         atomic.Int64 // requests attached to an in-flight solve
	solvesStarted   atomic.Int64 // solver runs launched
	solvesCompleted atomic.Int64 // runs that reached a verdict
	suspended       atomic.Int64 // runs suspended to a checkpoint
	budgetAborts    atomic.Int64 // suspensions caused by budget exhaustion
	resumedDrains   atomic.Int64 // runs that resumed a stored checkpoint
	rejected        atomic.Int64 // requests refused at admission (queue full)
	shed            atomic.Int64 // queued solves evicted by cheaper arrivals
	drained         atomic.Int64 // requests refused because the service is draining
	degradedRejects atomic.Int64 // writes refused in degraded read-only mode
	inflight        atomic.Int64 // solver runs currently executing

	latMu    sync.Mutex
	lats     []time.Duration // ring buffer of recent solve latencies
	latNext  int
	latTotal int64
	latSum   time.Duration
}

const latencyReservoir = 1024

func newMetrics() *Metrics {
	return &Metrics{lats: make([]time.Duration, 0, latencyReservoir)}
}

func (m *Metrics) recordLatency(d time.Duration) {
	m.latMu.Lock()
	if len(m.lats) < latencyReservoir {
		m.lats = append(m.lats, d)
	} else {
		m.lats[m.latNext] = d
		m.latNext = (m.latNext + 1) % latencyReservoir
	}
	m.latTotal++
	m.latSum += d
	m.latMu.Unlock()
}

// meanLatency is the mean over every recorded solve (not just the
// reservoir) — the admission layer's Retry-After estimate.
func (m *Metrics) meanLatency() time.Duration {
	m.latMu.Lock()
	defer m.latMu.Unlock()
	if m.latTotal == 0 {
		return 0
	}
	return m.latSum / time.Duration(m.latTotal)
}

// percentiles returns the given quantiles (0..1) over the reservoir.
func (m *Metrics) percentiles(qs ...float64) []time.Duration {
	m.latMu.Lock()
	sample := append([]time.Duration(nil), m.lats...)
	m.latMu.Unlock()
	out := make([]time.Duration, len(qs))
	if len(sample) == 0 {
		return out
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	for i, q := range qs {
		idx := int(q * float64(len(sample)-1))
		out[i] = sample[idx]
	}
	return out
}

// Snapshot is the JSON shape of /metricz.
type Snapshot struct {
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	Deduped         int64 `json:"singleflight_deduped"`
	SolvesStarted   int64 `json:"solves_started"`
	SolvesCompleted int64 `json:"solves_completed"`
	Suspended       int64 `json:"suspended"`
	BudgetAborts    int64 `json:"budget_aborts"`
	ResumedDrains   int64 `json:"resumed_drains"`
	Checkpoints     int64 `json:"checkpoints_journaled"`
	Rejected        int64 `json:"rejected_overload"`
	Shed            int64 `json:"shed_overload"`
	Drained         int64 `json:"rejected_draining"`
	DegradedRejects int64 `json:"rejected_degraded"`
	InFlight        int64 `json:"inflight_solves"`
	QueueDepth      int   `json:"queue_depth"`

	// Degraded read-only mode (sticky after a storage failure).
	Degraded       bool    `json:"degraded"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	DegradedSec    float64 `json:"degraded_sec,omitempty"`

	StoredVerdicts    int   `json:"stored_verdicts"`
	StoredCheckpoints int   `json:"stored_checkpoints"`
	JournalRecords    int   `json:"journal_records"`
	JournalBytes      int64 `json:"journal_bytes"`
	JournalLiveBytes  int64 `json:"journal_live_bytes"`
	StoreCompactions  int64 `json:"store_compactions"`

	SolveLatencyMsP50  float64 `json:"solve_latency_ms_p50"`
	SolveLatencyMsP90  float64 `json:"solve_latency_ms_p90"`
	SolveLatencyMsP99  float64 `json:"solve_latency_ms_p99"`
	SolveLatencyMsMean float64 `json:"solve_latency_ms_mean"`
	SolveSamples       int64   `json:"solve_latency_samples"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (m *Metrics) snapshot(queueDepth int, st *verdictstore.Store) Snapshot {
	ps := m.percentiles(0.50, 0.90, 0.99)
	m.latMu.Lock()
	samples := m.latTotal
	m.latMu.Unlock()
	s := Snapshot{
		CacheHits:       m.cacheHits.Load(),
		CacheMisses:     m.cacheMisses.Load(),
		Deduped:         m.deduped.Load(),
		SolvesStarted:   m.solvesStarted.Load(),
		SolvesCompleted: m.solvesCompleted.Load(),
		Suspended:       m.suspended.Load(),
		BudgetAborts:    m.budgetAborts.Load(),
		ResumedDrains:   m.resumedDrains.Load(),
		Rejected:        m.rejected.Load(),
		Shed:            m.shed.Load(),
		Drained:         m.drained.Load(),
		DegradedRejects: m.degradedRejects.Load(),
		InFlight:        m.inflight.Load(),
		QueueDepth:      queueDepth,

		SolveLatencyMsP50:  ms(ps[0]),
		SolveLatencyMsP90:  ms(ps[1]),
		SolveLatencyMsP99:  ms(ps[2]),
		SolveLatencyMsMean: ms(m.meanLatency()),
		SolveSamples:       samples,
	}
	if st != nil {
		s.StoredVerdicts, s.StoredCheckpoints, s.JournalRecords, s.JournalBytes = st.Counts()
		s.JournalLiveBytes = st.LiveBytes()
		s.Checkpoints, s.StoreCompactions = st.Activity()
	}
	return s
}
