// Package coord is the scale-out coordinator: a thin layer that plans a
// temporal query once against the full catalog, splits the chosen physical
// plan into per-shard fragments (internal/core's splitter), runs the
// fragments concurrently on shard servers over the wire protocol
// (internal/server's partial-plan op), merges the shard outputs
// deterministically, and executes the remainder plan locally through the
// ordinary stratum executor over a synthetic catalog holding the merged
// fragments. Because the merge reconstructs exactly the lists a
// single-node run would have materialized at the same plan points — and
// the simulated DBMS's seeded order nondeterminism is a pure function of
// the seed and those lists — a sharded query returns a result
// bit-identical to a single node with the same catalog, seed and engine.
//
// The coordinator and its shard servers never exchange a shard map: both
// derive the same deterministic partitioning (internal/shard) from the
// same catalog, the coordinator from the whole database, each server from
// tqserver's -shard i/n flag.
package coord

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/relation"
	"tqp/internal/server"
	"tqp/internal/shard"
	"tqp/internal/stratum"
)

// Config parameterizes a Coordinator. Catalog and Addrs are required; the
// zero value of everything else has a usable default.
type Config struct {
	// Catalog is the full (unsharded) database. Planning, the shard map,
	// and the cost model all derive from it; the shard servers hold its
	// slices.
	Catalog *catalog.Catalog
	// Addrs are the shard servers, index-aligned with the shard map.
	Addrs []string
	// Mode picks the partitioning strategy derivation; default Auto. It
	// must match the shard servers' -shard derivation mode.
	Mode shard.Mode
	// Spec is the engine for planning and remainder execution; default
	// the exec engine.
	Spec eval.EngineSpec
	// Seed drives the simulated DBMS's order nondeterminism; default 1.
	// With equal catalog, seed and spec, sharded results are bit-identical
	// to a single node's.
	Seed int64
	// DialTimeout bounds each shard connection attempt; default 5s.
	DialTimeout time.Duration
	// QueryTimeout bounds each per-shard fragment call; default 60s.
	QueryTimeout time.Duration
	// CacheSize bounds the prepared-plan/split cache; default 256,
	// negative disables.
	CacheSize int
}

func (c Config) withDefaults() Config {
	if c.Spec.Name == "" {
		c.Spec = exec.NewSpec(exec.Config{})
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 60 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	return c
}

// ShardError reports a failed shard call. The query fails whole — partial
// results are never returned — but the error names the shard so operators
// know where to look.
type ShardError struct {
	Index int
	Addr  string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("coord: shard %d (%s): %v", e.Index, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Stats counts a coordinator's work, for observability and for tests
// guarding against vacuously-green differentials (a run that pushed no
// fragments proves nothing).
type Stats struct {
	Queries   int
	CacheHits int
	// Fragments counts pushed fragments by kind ("chain", "sorted",
	// "grouped") across all planned splits.
	Fragments map[string]int
	// ShardCalls counts fragment dispatches; Retries counts redials after
	// a transient failure.
	ShardCalls int
	Retries    int
}

// Meta is the provenance of one coordinated query.
type Meta struct {
	CacheHit  bool
	Plans     int
	BestCost  float64
	Fragments int
	Shards    int
}

type cacheEntry struct {
	prep  *core.Prepared
	split *core.Split
	// wire holds each fragment's wire form, index-aligned with
	// split.Fragments: encoded once per plan, sent to every shard.
	wire []*server.WirePlan
}

// Coordinator plans, scatters and gathers. Safe for concurrent use: the
// planner and cache are concurrency-safe, and each shard connection
// serializes its requests.
type Coordinator struct {
	cfg Config
	m   *shard.Map
	opt *core.Optimizer
	fp  string

	connMu  []sync.Mutex // per-shard: guards clients[i]
	clients []*server.Client

	// cache is the server's LRU plan cache, holding each statement's plan
	// together with its shard split.
	cache *server.PlanCache[*cacheEntry]

	mu    sync.Mutex
	stats Stats
}

// New derives the shard map, dials every shard, and returns a ready
// coordinator. The caller owns Close.
func New(ctx context.Context, cfg Config) (*Coordinator, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("coord: Config.Catalog is required")
	}
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("coord: Config.Addrs is required")
	}
	cfg = cfg.withDefaults()
	m, err := shard.NewMapMode(cfg.Catalog, len(cfg.Addrs), cfg.Mode)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		m:       m,
		opt:     core.New(cfg.Catalog, core.WithEngine(cfg.Spec), core.WithDBMSSeed(cfg.Seed), core.WithCostParams(core.ShardedCostParams(cfg.Spec, len(cfg.Addrs)))),
		fp:      cfg.Catalog.Fingerprint(),
		connMu:  make([]sync.Mutex, len(cfg.Addrs)),
		clients: make([]*server.Client, len(cfg.Addrs)),
		cache:   server.NewPlanCache[*cacheEntry](cfg.CacheSize),
		stats:   Stats{Fragments: make(map[string]int)},
	}
	for i, addr := range cfg.Addrs {
		cl, err := c.dial(ctx, addr)
		if err != nil {
			c.Close()
			return nil, &ShardError{Index: i, Addr: addr, Err: err}
		}
		c.clients[i] = cl
	}
	return c, nil
}

func (c *Coordinator) dial(ctx context.Context, addr string) (*server.Client, error) {
	dctx, cancel := context.WithTimeout(ctx, c.cfg.DialTimeout)
	defer cancel()
	return server.Dial(dctx, addr)
}

// Close closes every shard connection.
func (c *Coordinator) Close() error {
	var first error
	for i, cl := range c.clients {
		if cl == nil {
			continue
		}
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
		c.clients[i] = nil
	}
	return first
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.CacheHits = int(c.cache.Stats().Hits)
	out.Fragments = make(map[string]int, len(c.stats.Fragments))
	for k, v := range c.stats.Fragments {
		out.Fragments[k] = v
	}
	return out
}

// prepare returns the cached (plan, split) for sql, planning on a miss.
func (c *Coordinator) prepare(sql string) (*cacheEntry, bool, error) {
	key := server.PlanKey(c.fp, c.cfg.Spec.Name, sql)
	if ent, ok := c.cache.Get(key); ok {
		return ent, true, nil
	}
	prep, err := c.opt.Prepare(sql)
	if err != nil {
		return nil, false, err
	}
	split, err := core.SplitForShards(prep.Plan, core.SplitPolicy{Colocated: c.m.Colocated})
	if err != nil {
		return nil, false, err
	}
	ent := &cacheEntry{prep: prep, split: split, wire: make([]*server.WirePlan, len(split.Fragments))}
	for i, f := range split.Fragments {
		if ent.wire[i], err = server.EncodePlan(f.Plan); err != nil {
			return nil, false, err
		}
	}
	c.cache.Put(key, ent)
	c.mu.Lock()
	for _, f := range split.Fragments {
		c.stats.Fragments[f.Kind.String()]++
	}
	c.mu.Unlock()
	return ent, false, nil
}

// partial runs one fragment on one shard, retrying once through a fresh
// connection after a transient (connection-level) failure. Server-reported
// errors are deterministic and never retried.
func (c *Coordinator) partial(ctx context.Context, i int, plan *server.WirePlan) (*relation.Relation, []int, error) {
	c.connMu[i].Lock()
	defer c.connMu[i].Unlock()
	call := func() (*relation.Relation, []int, error) {
		qctx, cancel := context.WithTimeout(ctx, c.cfg.QueryTimeout)
		defer cancel()
		return c.clients[i].Partial(qctx, plan)
	}
	rel, seqs, err := call()
	if err == nil {
		return rel, seqs, nil
	}
	var se *server.ServerError
	if errors.As(err, &se) || ctx.Err() != nil {
		return nil, nil, err
	}
	// Transient: the connection broke (or was poisoned by an earlier
	// interrupted call). Redial once and retry.
	cl, derr := c.dial(ctx, c.cfg.Addrs[i])
	if derr != nil {
		return nil, nil, err
	}
	c.clients[i].Close()
	c.clients[i] = cl
	c.mu.Lock()
	c.stats.Retries++
	c.mu.Unlock()
	return call()
}

// Query plans, scatters, gathers and finishes one statement. The result is
// bit-identical to a single-node run over the same catalog, seed and
// engine spec. Any shard failure fails the whole query with a *ShardError
// naming the shard.
func (c *Coordinator) Query(ctx context.Context, sql string) (*relation.Relation, *Meta, error) {
	if _, _, isSet, _ := server.ParseSet(sql); isSet {
		return nil, nil, fmt.Errorf("coord: SET statements are not supported (engine settings are fixed per coordinator)")
	}
	ent, hit, err := c.prepare(sql)
	if err != nil {
		return nil, nil, err
	}
	outs, err := c.scatter(ctx, ent)
	if err != nil {
		return nil, nil, err
	}
	result, err := c.finish(ent, outs)
	if err != nil {
		return nil, nil, err
	}
	return result, &Meta{
		CacheHit:  hit,
		Plans:     ent.prep.PlanCount,
		BestCost:  ent.prep.BestCost,
		Fragments: len(ent.split.Fragments),
		Shards:    len(c.clients),
	}, nil
}

// shardOut is one shard's answers to a statement's fragments,
// index-aligned with them: each a columnar result and its sequence keys.
type shardOut struct {
	rels []*relation.Relation
	seqs [][]int
}

// scatter runs every fragment of ent on every shard: one goroutine per
// shard runs all fragments over that shard's (serialized) connection, so
// fragments of one shard pipeline naturally and shards proceed
// concurrently.
func (c *Coordinator) scatter(ctx context.Context, ent *cacheEntry) ([]shardOut, error) {
	c.mu.Lock()
	c.stats.Queries++
	c.stats.ShardCalls += len(ent.split.Fragments) * len(c.clients)
	c.mu.Unlock()

	outs := make([]shardOut, len(c.clients))
	errs := make([]error, len(c.clients))
	var wg sync.WaitGroup
	for i := range c.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := shardOut{rels: make([]*relation.Relation, len(ent.wire)), seqs: make([][]int, len(ent.wire))}
			for fi, plan := range ent.wire {
				rel, seqs, err := c.partial(ctx, i, plan)
				if err != nil {
					errs[i] = &ShardError{Index: i, Addr: c.cfg.Addrs[i], Err: err}
					return
				}
				o.rels[fi], o.seqs[fi] = rel, seqs
			}
			outs[i] = o
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// finish gathers and runs the remainder. The gather merges each fragment's
// shard answers, in columns, into the exact list a single node would hold
// at that plan point and registers it as the fragment's placeholder
// relation; the remainder plan then replays the single-node execution over
// the placeholders — including the simulated DBMS's seeded permutations,
// which depend only on the seed and the (identical) gathered lists.
func (c *Coordinator) finish(ent *cacheEntry, outs []shardOut) (*relation.Relation, error) {
	synth := catalog.New()
	for fi, f := range ent.split.Fragments {
		parts := make([]exec.TaggedRows, len(outs))
		for i := range parts {
			if outs[i].seqs[fi] == nil && f.Kind != core.FragmentGrouped {
				return nil, &ShardError{Index: i, Addr: c.cfg.Addrs[i],
					Err: fmt.Errorf("coord: shard returned no sequence keys for %s fragment %s", f.Kind, f.Name)}
			}
			b, _ := outs[i].rels[fi].Columns()
			parts[i] = exec.TaggedRows{Batch: b, Seqs: outs[i].seqs[fi]}
		}
		if err := synth.AddTrusted(f.Name, f.Merge(parts), algebra.BaseInfo{Order: f.Order}); err != nil {
			return nil, err
		}
	}
	result, _, err := stratum.NewWithEngine(synth, c.cfg.Seed, c.cfg.Spec).Execute(ent.split.Remainder)
	return result, err
}
