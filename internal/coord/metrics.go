package coord

import (
	"tqp/internal/core"
	"tqp/internal/obs"
)

// RegisterMetrics exports the coordinator's counters into reg as
// scrape-time readers, each of its one counter — the coordinator's hot path
// keeps its own counters under c.mu and never touches registry handles, and
// a scrape copies no stats. The fragment-kind series are registered eagerly
// for every kind the splitter can produce, so a scrape always shows the
// full family even before the first query.
func (c *Coordinator) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("tqp_coord_shards", "Shard servers this coordinator scatters to.", func() float64 {
		return float64(len(c.cfg.Addrs))
	})
	reg.CounterFunc("tqp_coord_queries_total", "Statements planned by the coordinator.",
		c.counter(func(st *Stats) int64 { return st.Queries }))
	reg.CounterFunc("tqp_coord_cache_hits_total", "Coordinator plan/split cache hits.", func() float64 {
		return float64(c.cache.Stats().Hits)
	})
	reg.CounterFunc("tqp_coord_shard_calls_total", "Partial-plan round trips dispatched to shards.",
		c.counter(func(st *Stats) int64 { return st.ShardCalls }))
	reg.CounterFunc("tqp_coord_retries_total", "Shard calls recovered by redial-and-retry.",
		c.counter(func(st *Stats) int64 { return st.Retries }))
	for _, kind := range []core.FragmentKind{core.FragmentChain, core.FragmentSorted, core.FragmentGrouped} {
		name := kind.String()
		reg.CounterFunc("tqp_coord_fragments_total", "Pushed-down fragments planned, by merge kind.",
			c.counter(func(st *Stats) int64 { return int64(st.Fragments[name]) }), obs.L("kind", name))
	}
}

// counter is a scrape-time reader of one counter, read under c.mu.
func (c *Coordinator) counter(read func(*Stats) int64) func() float64 {
	return func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(read(&c.stats))
	}
}
