package coord

import (
	"tqp/internal/core"
	"tqp/internal/obs"
)

// RegisterMetrics exports the coordinator's counters into reg as
// scrape-time readers over Stats — the coordinator's hot path keeps its
// own counters under c.mu and never touches registry handles. The
// fragment-kind series are registered eagerly for every kind the splitter
// can produce, so a scrape always shows the full family even before the
// first query.
func (c *Coordinator) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("tqp_coord_shards", "Shard servers this coordinator scatters to.", func() float64 {
		return float64(len(c.cfg.Addrs))
	})
	reg.CounterFunc("tqp_coord_queries_total", "Statements planned by the coordinator.", func() float64 {
		return float64(c.Stats().Queries)
	})
	reg.CounterFunc("tqp_coord_cache_hits_total", "Coordinator plan/split cache hits.", func() float64 {
		return float64(c.Stats().CacheHits)
	})
	reg.CounterFunc("tqp_coord_shard_calls_total", "Partial-plan round trips dispatched to shards.", func() float64 {
		return float64(c.Stats().ShardCalls)
	})
	reg.CounterFunc("tqp_coord_retries_total", "Shard calls recovered by redial-and-retry.", func() float64 {
		return float64(c.Stats().Retries)
	})
	for _, kind := range []core.FragmentKind{core.FragmentChain, core.FragmentSorted, core.FragmentGrouped} {
		name := kind.String()
		reg.CounterFunc("tqp_coord_fragments_total", "Pushed-down fragments planned, by merge kind.", func() float64 {
			return float64(c.Stats().Fragments[name])
		}, obs.L("kind", name))
	}
}
