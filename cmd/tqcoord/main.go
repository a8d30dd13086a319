// Command tqcoord runs temporal SQL across shard servers: it plans each
// statement once against the full catalog, splits the chosen physical plan
// into per-shard fragments, scatters them over the wire protocol to the
// shards (tqserver -shard i/n instances holding slices of the same
// database), merges the partial results deterministically, and finishes
// the plan locally. Results are bit-identical to a single-node run over
// the same catalog, seed and engine.
//
// Point it at running shard servers:
//
//	tqserver -addr :7041 -db synth -shard 0/2 &
//	tqserver -addr :7042 -db synth -shard 1/2 &
//	tqcoord -shards 127.0.0.1:7041,127.0.0.1:7042 -db synth \
//	    -q "SELECT NAME FROM EMPLOYEE WHERE SALARY > 1500"
//
// or let it spawn an in-process fleet for a self-contained demo:
//
//	tqcoord -spawn 4 -db synth -q "..."
//
// The -db/-employees/-seed/-mode flags must match the shard servers'
// flags: both sides derive the shard map from the full catalog, and the
// bit-identity contract assumes they agree on the data and the seed.
// Without -q the command reads statements from stdin, one per line.
//
// With -addr the coordinator instead serves the wire protocol itself, so
// tqshell -connect (including \stats) works against it exactly as against
// a single tqserver; -metrics-addr adds a /metrics + /debug/pprof HTTP
// listener either way.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"tqp"
	"tqp/internal/coord"
	"tqp/internal/core"
	"tqp/internal/exec"
	"tqp/internal/obs"
	"tqp/internal/server"
	"tqp/internal/shard"
)

func main() {
	var (
		shards      = flag.String("shards", "", "comma-separated shard server addresses (host:port,...)")
		spawn       = flag.Int("spawn", 0, "spawn this many in-process shard servers instead of -shards")
		db          = flag.String("db", "paper", "database: 'paper' or 'synth' (must match the shard servers)")
		employees   = flag.Int("employees", 1000, "synthetic database size (with -db synth)")
		engine      = flag.String("engine", "exec", "engine for planning and the coordinator-side remainder: 'reference', 'exec' or 'parallel'")
		parallel    = flag.Int("parallel", 0, "worker count for the morsel-parallel engine")
		mem         = flag.String("mem", "", "memory budget for the exec engine's blocking operators, e.g. 64K, 16MB")
		mode        = flag.String("mode", "auto", "partitioning strategy: 'auto' (hash every relation holding the shared key on it alone, so a grouped region — up to the paper statement's whole \\ᵀ — runs below the gather), 'hash' or 'range' (must match the shard servers' -shard-mode)")
		seed        = flag.Int64("seed", 1, "simulated DBMS order-nondeterminism seed (must match the shard servers)")
		query       = flag.String("q", "", "run one statement and exit (default: read statements from stdin)")
		addr        = flag.String("addr", "", "serve the coordinator over the wire protocol on this address instead of running statements (connect with tqshell -connect)")
		metricsAddr = flag.String("metrics-addr", "", "HTTP listen address for /metrics (Prometheus text) and /debug/pprof (empty = disabled)")
	)
	flag.Parse()
	if err := run(*shards, *spawn, *db, *employees, *engine, *parallel, *mem, *mode, *seed, *query, *addr, *metricsAddr, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tqcoord: %v\n", err)
		os.Exit(1)
	}
}

func run(shards string, spawn int, db string, employees int, engine string, parallel int,
	mem, modeName string, seed int64, query, addr, metricsAddr string, in io.Reader, out io.Writer) error {
	budget, err := core.ParseBytes(mem)
	if err != nil {
		return err
	}
	spec, err := core.EngineFor(engine, exec.Config{Parallelism: parallel, MemoryBudget: budget})
	if err != nil {
		return err
	}
	mode, err := shard.ParseMode(modeName)
	if err != nil {
		return err
	}
	cat, err := core.CatalogFor(db, employees)
	if err != nil {
		return err
	}

	var addrs []string
	switch {
	case spawn > 0 && shards != "":
		return fmt.Errorf("-shards and -spawn are mutually exclusive")
	case spawn > 0:
		fleet, fleetAddrs, err := spawnFleet(cat, spawn, mode, seed)
		if err != nil {
			return err
		}
		defer func() {
			for _, s := range fleet {
				s.Close()
			}
		}()
		addrs = fleetAddrs
		fmt.Fprintf(out, "tqcoord: spawned %d in-process shards\n", spawn)
	case shards != "":
		addrs = strings.Split(shards, ",")
	default:
		return fmt.Errorf("need -shards addr,... or -spawn N")
	}

	ctx := context.Background()
	c, err := coord.New(ctx, coord.Config{
		Catalog: cat, Addrs: addrs, Mode: mode, Spec: spec, Seed: seed,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintf(out, "tqcoord: coordinating %d shards over the %s database (engine %s)\n",
		len(addrs), db, spec.Name)

	if metricsAddr != "" {
		reg := obs.NewRegistry()
		c.RegisterMetrics(reg)
		bound, stopMetrics, err := obs.Serve(metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		defer stopMetrics()
		fmt.Fprintf(out, "tqcoord: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", bound)
	}

	if addr != "" {
		// Listen mode: serve the coordinator over the wire protocol until
		// interrupted; any protocol client (tqshell -connect) works.
		f, err := c.Serve(addr)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(out, "tqcoord: serving the wire protocol on %s\n", f.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(out, "tqcoord: shutting down")
		return nil
	}

	if query != "" {
		return runOne(ctx, c, query, out)
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		sql := strings.TrimSpace(sc.Text())
		if sql == "" {
			continue
		}
		if err := runOne(ctx, c, sql, out); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
	st := c.Stats()
	fmt.Fprintf(out, "tqcoord: done — %d queries (%d cache hits), %d shard calls, %d retries, fragments %v\n",
		st.Queries, st.CacheHits, st.ShardCalls, st.Retries, st.Fragments)
	return sc.Err()
}

func runOne(ctx context.Context, c *coord.Coordinator, sql string, out io.Writer) error {
	result, meta, err := c.Query(ctx, sql)
	if err != nil {
		return err
	}
	fmt.Fprint(out, result)
	cache := "miss"
	if meta.CacheHit {
		cache = "hit"
	}
	fmt.Fprintf(out, "(%d tuples; %d plans considered; best cost %.0f; %d fragments x %d shards; plan cache %s)\n",
		result.Len(), meta.Plans, meta.BestCost, meta.Fragments, meta.Shards, cache)
	return nil
}

// spawnFleet starts n in-process shard servers on ephemeral ports, each
// holding its slice of the catalog's n-way partitioning.
func spawnFleet(cat *tqp.Catalog, n int, mode shard.Mode, seed int64) ([]*server.Server, []string, error) {
	m, err := shard.NewMapMode(cat, n, mode)
	if err != nil {
		return nil, nil, err
	}
	var fleet []*server.Server
	var addrs []string
	for i := 0; i < n; i++ {
		sub, pos, err := m.Partition(i)
		if err == nil {
			var s *server.Server
			s, err = server.Start(server.Config{
				Addr: "127.0.0.1:0", Catalog: sub, ShardPositions: pos, Seed: seed,
			})
			if err == nil {
				fleet = append(fleet, s)
				addrs = append(addrs, s.Addr())
				continue
			}
		}
		for _, s := range fleet {
			s.Close()
		}
		return nil, nil, fmt.Errorf("spawning shard %d: %w", i, err)
	}
	return fleet, addrs, nil
}
