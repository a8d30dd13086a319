// Command tqserver serves a catalog over TCP: the concurrent temporal-query
// service of internal/server (length-prefixed JSON protocol, per-connection
// sessions, shared plan cache, admission control). Connect with
//
//	tqshell -connect host:port
//
// or programmatically with server.Dial. SIGINT/SIGTERM shut the server
// down gracefully: in-flight queries drain, queued ones are rejected with
// the typed shutdown error, and no spill files are left behind.
//
// Flags mirror the other commands where they overlap (-db, -engine, -mem)
// and add the serving knobs: -max-concurrent, -queue, -queue-timeout,
// -workers, -cache, -spill-dir, -drain-timeout.
//
// Observability: -metrics-addr starts an HTTP listener exposing the
// Prometheus text endpoint /metrics and the pprof handlers under
// /debug/pprof/; -query-log writes one JSON record per query (see
// obs.QueryRecord), filtered by -slow-query-ms.
//
// With -shard i/n the server loads only slice i of an n-way partitioning
// of the database (derived deterministically from the full catalog; see
// internal/shard) and answers the coordinator's partial-plan requests over
// it. Start n such servers with the same -db/-seed/-shard-mode flags and
// point tqcoord at them.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tqp"
	"tqp/internal/core"
	"tqp/internal/obs"
	"tqp/internal/server"
	"tqp/internal/shard"
)

// openQueryLog resolves the -query-log flag value to a sink: "-" is
// stderr, anything else a file opened for append.
func openQueryLog(dest string) (obs.Sink, func(), error) {
	if dest == "-" {
		return obs.WriterSink(os.Stderr), func() {}, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return obs.WriterSink(f), func() { f.Close() }, nil
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7040", "TCP listen address (use :0 for an ephemeral port)")
		db           = flag.String("db", "paper", "database: 'paper' or 'synth'")
		dbDir        = flag.String("db-dir", "", "persistent store directory; seeded from -db on first open, read from disk after (empty = in-memory)")
		employees    = flag.Int("employees", 1000, "synthetic database size (with -db synth)")
		engine       = flag.String("engine", "exec", "default session engine: 'reference', 'exec' or 'parallel'")
		maxConc      = flag.Int("max-concurrent", 0, "concurrent query cap (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission queue length (0 = 4x the cap, negative = no queue)")
		queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "admission queue deadline")
		workers      = flag.Int("workers", 0, "global worker pool divided across admitted queries (0 = GOMAXPROCS)")
		mem          = flag.String("mem", "", "global memory budget divided across admitted queries, e.g. 256M, 256MB (0 or empty = unlimited)")
		cacheSize    = flag.Int("cache", 256, "plan cache capacity in entries (negative disables caching)")
		spillDir     = flag.String("spill-dir", "", "directory for the budgeted engine's spill files (empty = system temp)")
		seed         = flag.Int64("seed", 1, "simulated DBMS order-nondeterminism seed")
		drain        = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain deadline")
		shardSpec    = flag.String("shard", "", "serve slice i of an n-way partitioning, as 'i/n' with 0 <= i < n (empty = whole database)")
		shardMode    = flag.String("shard-mode", "auto", "partitioning strategy with -shard: 'auto' (hash every relation holding the shared key on it alone, co-partitioning them), 'hash' or 'range'")
		metricsAddr  = flag.String("metrics-addr", "", "HTTP listen address for /metrics (Prometheus text) and /debug/pprof (empty = disabled)")
		queryLog     = flag.String("query-log", "", "structured query log destination: a file path, or '-' for stderr (empty = disabled)")
		slowMS       = flag.Float64("slow-query-ms", 0, "with -query-log, log only queries at least this slow; errors always log (0 = every query)")
	)
	flag.Parse()

	cfg, err := buildConfig(*addr, *db, *dbDir, *employees, *engine, *maxConc, *queue, *queueTimeout,
		*workers, *mem, *cacheSize, *spillDir, *seed, *drain, *shardSpec, *shardMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqserver: %v\n", err)
		os.Exit(2)
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	if *queryLog != "" {
		sink, closeLog, err := openQueryLog(*queryLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tqserver: -query-log: %v\n", err)
			os.Exit(2)
		}
		defer closeLog()
		cfg.QueryLog = obs.NewQueryLog(sink, *slowMS)
	}
	srv, err := server.Start(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqserver: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("tqserver: serving the %s database on %s (engine %s, cap %d, cache %d)\n",
		*db, srv.Addr(), cfg.Engine, cfg.MaxConcurrent, cfg.CacheSize)
	if reg != nil {
		bound, stopMetrics, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tqserver: -metrics-addr: %v\n", err)
			srv.Close()
			os.Exit(2)
		}
		defer stopMetrics()
		fmt.Printf("tqserver: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("tqserver: shutting down (draining in-flight queries)")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tqserver: %v\n", err)
		os.Exit(1)
	}
	cs, as := srv.CacheStats(), srv.AdmissionStats()
	fmt.Printf("tqserver: done — %d admitted, %d rejected; plan cache %d hits / %d misses / %d evictions\n",
		as.Admitted, as.Rejected, cs.Hits, cs.Misses, cs.Evictions)
}

// buildConfig resolves the flag surface to a server.Config; split out of
// main for testability.
func buildConfig(addr, db, dbDir string, employees int, engine string, maxConc, queue int,
	queueTimeout time.Duration, workers int, mem string, cacheSize int,
	spillDir string, seed int64, drain time.Duration, shardSpec, shardMode string) (server.Config, error) {
	budget, err := core.ParseBytes(mem)
	if err != nil {
		return server.Config{}, err
	}
	cat, err := core.CatalogFor(db, employees)
	if err != nil {
		return server.Config{}, err
	}
	if dbDir != "" {
		// The in-memory catalog built above becomes the seed for a fresh
		// store; a restart on the same directory ignores it and reads disk.
		cat, err = tqp.OpenDiskCatalog(dbDir, cat)
		if err != nil {
			return server.Config{}, err
		}
	}
	var positions map[string][]int
	if shardSpec != "" {
		cat, positions, err = shardSlice(cat, shardSpec, shardMode)
		if err != nil {
			return server.Config{}, err
		}
	}
	return server.Config{
		Addr:           addr,
		Catalog:        cat,
		Engine:         engine,
		MaxConcurrent:  maxConc,
		MaxQueue:       queue,
		QueueTimeout:   queueTimeout,
		Workers:        workers,
		MemoryBudget:   budget,
		SpillDir:       spillDir,
		CacheSize:      cacheSize,
		Seed:           seed,
		DrainTimeout:   drain,
		ShardPositions: positions,
	}, nil
}

// shardSlice replaces the catalog with slice i of its n-way partitioning,
// parsed from an 'i/n' flag value.
func shardSlice(cat *tqp.Catalog, spec, modeName string) (*tqp.Catalog, map[string][]int, error) {
	var i, n int
	if _, err := fmt.Sscanf(spec, "%d/%d", &i, &n); err != nil {
		return nil, nil, fmt.Errorf("bad -shard %q (want 'i/n', e.g. 0/4)", spec)
	}
	if n < 1 || i < 0 || i >= n {
		return nil, nil, fmt.Errorf("bad -shard %q (want 0 <= i < n)", spec)
	}
	mode, err := shard.ParseMode(modeName)
	if err != nil {
		return nil, nil, err
	}
	m, err := shard.NewMapMode(cat, n, mode)
	if err != nil {
		return nil, nil, err
	}
	return m.Partition(i)
}
