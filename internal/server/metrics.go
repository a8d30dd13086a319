package server

import (
	"sync"
	"time"

	"tqp/internal/obs"
)

// serverMetrics is the server's view into an obs.Registry: the families
// the serving path touches per query, plus scrape-time readers over the
// counters the server already keeps (cache, admission, connections).
// Construction registers everything; a nil *serverMetrics (no -metrics-addr)
// turns every record call into a nil check.
type serverMetrics struct {
	reg *obs.Registry

	queries     *obs.Counter
	latency     *obs.Histogram
	queueWait   *obs.Histogram
	rows        *obs.Histogram
	spillBytes  *obs.Counter
	transferred *obs.Counter

	mu     sync.Mutex
	errors map[string]*obs.Counter // per error code
}

// newServerMetrics registers the server's metric families into reg.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		reg:         reg,
		queries:     reg.Counter("tqp_queries_total", "Queries accepted by the serving path (including failed ones)."),
		latency:     reg.Histogram("tqp_query_latency_seconds", "End-to-end query latency: admission queue through result streaming.", obs.LatencyBuckets()),
		queueWait:   reg.Histogram("tqp_queue_wait_seconds", "Admission queue wait per query.", obs.LatencyBuckets()),
		rows:        reg.Histogram("tqp_query_rows", "Rows returned per successful query.", obs.SizeBuckets()),
		spillBytes:  reg.Counter("tqp_spill_bytes_total", "Bytes written to spill files by budgeted executions."),
		transferred: reg.Counter("tqp_tuples_transferred_total", "Tuples crossing the stratum/DBMS boundary."),
		errors:      make(map[string]*obs.Counter),
	}
	reg.GaugeFunc("tqp_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	reg.GaugeFunc("tqp_connections", "Open client connections.", func() float64 {
		return float64(s.lis.Conns())
	})
	reg.CounterFunc("tqp_plan_cache_hits_total", "Plan cache hits.", func() float64 {
		return float64(s.cache.Stats().Hits)
	})
	reg.CounterFunc("tqp_plan_cache_misses_total", "Plan cache misses.", func() float64 {
		return float64(s.cache.Stats().Misses)
	})
	reg.CounterFunc("tqp_plan_cache_evictions_total", "Plan cache evictions.", func() float64 {
		return float64(s.cache.Stats().Evictions)
	})
	reg.GaugeFunc("tqp_plan_cache_entries", "Plans currently cached.", func() float64 {
		return float64(s.cache.Stats().Entries)
	})
	reg.GaugeFunc("tqp_admission_active", "Queries currently executing.", func() float64 {
		return float64(s.adm.stats().Active)
	})
	reg.GaugeFunc("tqp_admission_queued", "Queries waiting in the admission queue.", func() float64 {
		return float64(s.adm.stats().Queued)
	})
	reg.CounterFunc("tqp_admission_rejected_total", "Queries rejected by a full admission queue.", func() float64 {
		return float64(s.adm.stats().Rejected)
	})
	reg.CounterFunc("tqp_admission_timed_out_total", "Queries that exceeded the admission queue deadline.", func() float64 {
		return float64(s.adm.stats().TimedOut)
	})
	return m
}

// errorCounts snapshots the per-code error totals for the stats reply.
func (m *serverMetrics) errorCounts() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.errors) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m.errors))
	for code, c := range m.errors {
		if v := c.Value(); v > 0 {
			out[code] = v
		}
	}
	return out
}

// errorCounter returns (registering lazily) the per-code error counter.
func (m *serverMetrics) errorCounter(code string) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.errors[code]
	if !ok {
		c = m.reg.Counter("tqp_query_errors_total", "Failed queries by error code.", obs.L("code", code))
		m.errors[code] = c
	}
	return c
}
