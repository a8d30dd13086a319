// Command tqshell is an interactive shell for temporal SQL — local over an
// in-process catalog, or remote against a tqserver instance
// (-connect host:port), with the same REPL either way.
//
// Meta commands:
//
//	\d                list relations (local mode)
//	\d NAME           show a relation's contents (local mode)
//	\plan SQL         explain without executing (local mode)
//	\explain SQL      rendered physical plan (alias for EXPLAIN SQL)
//	\explain analyze SQL  execute and render est-vs-actual per plan node
//	\stats            server/coordinator statistics (client mode)
//	\set              show the session's engine settings
//	\set NAME VALUE   change a setting: engine, parallel or mem
//	\q                quit
//
// In client mode \set updates the server-side session (the same settings an
// in-band "SET name value" statement changes), so a session can switch
// engines, worker counts and memory budgets without reconnecting.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tqp"
	"tqp/internal/core"
	"tqp/internal/obs"
	"tqp/internal/server"
)

func main() {
	db := flag.String("db", "paper", "database: 'paper' or 'synth' (local mode)")
	dbDir := flag.String("db-dir", "", "persistent store directory; seeded from -db on first open, read from disk after (local mode, empty = in-memory)")
	employees := flag.Int("employees", 50, "synthetic database size (with -db synth)")
	engine := flag.String("engine", "reference", "physical engine for stratum subplans: 'reference', 'exec' or 'parallel'")
	parallel := flag.Int("parallel", 0, "worker count for the morsel-parallel engine (with -engine exec|parallel)")
	mem := flag.String("mem", "", "memory budget for the exec engine's blocking operators, e.g. 64K, 16MB, 1GB (0 or empty = unlimited)")
	connect := flag.String("connect", "", "connect to a tqserver at host:port instead of evaluating locally")
	flag.Parse()

	if *connect != "" {
		cl, err := server.Dial(context.Background(), *connect)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tqshell: %v\n", err)
			os.Exit(2)
		}
		defer cl.Close()
		runREPL(newRemoteBackend(cl, *connect), os.Stdin, os.Stdout)
		return
	}

	budget, err := core.ParseBytes(*mem)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqshell: -mem: %v\n", err)
		os.Exit(2)
	}
	cat, err := openCatalog(*db, *dbDir, *employees)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqshell: %v\n", err)
		os.Exit(2)
	}
	b, err := newLocalBackend(cat, *db, *engine, *parallel, budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tqshell: %v\n", err)
		os.Exit(2)
	}
	runREPL(b, os.Stdin, os.Stdout)
}

// openCatalog resolves the -db/-db-dir flags to a catalog instance.
func openCatalog(db, dbDir string, employees int) (*tqp.Catalog, error) {
	cat, err := core.CatalogFor(db, employees)
	if err != nil {
		return nil, err
	}
	if dbDir != "" {
		return tqp.OpenDiskCatalog(dbDir, cat)
	}
	return cat, nil
}

// backend is what the REPL drives: local in-process evaluation or a remote
// tqserver session.
type backend interface {
	banner() string
	// run executes a statement and renders result + trace line.
	run(sql string, out io.Writer)
	// set changes one session setting (engine, parallel, mem).
	set(name, value string) error
	// settings renders the current session settings.
	settings() string
	// describe renders \d (arg "" lists relations); plan renders \plan.
	describe(arg string, out io.Writer)
	plan(sql string, out io.Writer)
	// explain renders \explain (analyze=false) or \explain analyze.
	explain(sql string, analyze bool, out io.Writer)
	// stats renders \stats.
	stats(out io.Writer)
}

// runREPL is the session loop over an explicit input and output, so tests
// can script sessions through a pipe.
func runREPL(b backend, in io.Reader, out io.Writer) {
	fmt.Fprintln(out, b.banner())
	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "tqp> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\q`:
			return
		case line == `\d`:
			b.describe("", out)
		case strings.HasPrefix(line, `\d `):
			b.describe(strings.TrimSpace(line[3:]), out)
		case line == `\set`:
			fmt.Fprintln(out, b.settings())
		case strings.HasPrefix(line, `\set `):
			fields := strings.Fields(line[5:])
			if len(fields) != 2 {
				fmt.Fprintln(out, `error: usage: \set engine|parallel|mem VALUE`)
				break
			}
			if err := b.set(strings.ToLower(fields[0]), fields[1]); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, b.settings())
			}
		case strings.HasPrefix(line, `\plan `):
			b.plan(strings.TrimSpace(line[6:]), out)
		case strings.HasPrefix(line, `\explain `):
			arg := strings.TrimSpace(line[len(`\explain `):])
			if rest, ok := cutFold(arg, "analyze"); ok {
				b.explain(rest, true, out)
			} else {
				b.explain(arg, false, out)
			}
		case line == `\stats`:
			b.stats(out)
		default:
			b.run(line, out)
		}
		fmt.Fprint(out, "tqp> ")
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(out, "error: reading input:", err)
	}
}

// cutFold strips a leading case-insensitive word plus the whitespace after
// it, reporting whether the word was present.
func cutFold(s, word string) (string, bool) {
	if len(s) > len(word) && strings.EqualFold(s[:len(word)], word) &&
		(s[len(word)] == ' ' || s[len(word)] == '\t') {
		return strings.TrimSpace(s[len(word):]), true
	}
	return s, false
}

// localBackend evaluates statements in process over a catalog. It keeps
// the session's engine settings (the -engine/-parallel/-mem flags, mutable
// via \set) and rebuilds its optimizer when they change.
type localBackend struct {
	cat      *tqp.Catalog
	dbName   string
	engine   string // "" = the optimizer's default (reference, default costs)
	parallel int
	mem      int64
	opt      *tqp.Optimizer
}

// newLocalBackend builds a local backend; an empty engine name keeps the
// optimizer's defaults (the repl test helper's mode).
func newLocalBackend(cat *tqp.Catalog, dbName, engine string, parallel int, mem int64) (*localBackend, error) {
	b := &localBackend{cat: cat, dbName: dbName, engine: engine, parallel: parallel, mem: mem}
	if err := b.rebuild(); err != nil {
		return nil, err
	}
	return b, nil
}

// rebuild re-derives the optimizer from the current settings.
func (b *localBackend) rebuild() error {
	if b.engine == "" && b.parallel == 0 && b.mem == 0 {
		b.opt = tqp.NewOptimizer(b.cat)
		return nil
	}
	spec, err := tqp.ResolveEngineFor(b.engine, tqp.EngineConfig{Parallelism: b.parallel, MemoryBudget: b.mem})
	if err != nil {
		return err
	}
	b.opt = tqp.NewOptimizer(b.cat, tqp.WithEngine(spec))
	return nil
}

func (b *localBackend) banner() string {
	return "tqp shell — temporal SQL over the " + b.dbName + " database; \\q quits, \\d lists relations"
}

func (b *localBackend) set(name, value string) error {
	old := *b
	switch name {
	case "engine":
		b.engine = value
	case "parallel":
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return fmt.Errorf("bad parallel %q (want a worker count)", value)
		}
		b.parallel = n
	case "mem":
		budget, err := core.ParseBytes(value)
		if err != nil {
			return err
		}
		b.mem = budget
	default:
		return fmt.Errorf("unknown setting %q (want engine, parallel or mem)", name)
	}
	if err := b.rebuild(); err != nil {
		*b = old // an invalid combination leaves the session untouched
		return err
	}
	return nil
}

func (b *localBackend) settings() string {
	engine := b.engine
	if engine == "" {
		engine = "reference"
	}
	return fmt.Sprintf("settings: engine=%s parallel=%d mem=%d", engine, b.parallel, b.mem)
}

func (b *localBackend) describe(arg string, out io.Writer) {
	if arg == "" {
		for _, name := range b.cat.Names() {
			e, _ := b.cat.Entry(name)
			fmt.Fprintf(out, "  %-12s %s, %d tuples\n", name, e.Rel.Schema(), e.Rel.Len())
		}
		return
	}
	if r, err := b.cat.Resolve(arg); err != nil {
		fmt.Fprintln(out, "error:", err)
	} else {
		fmt.Fprint(out, r)
	}
}

func (b *localBackend) plan(sql string, out io.Writer) {
	plans, err := b.opt.OptimizeSQL(sql)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	rendered, err := b.opt.Explain(plans.Best, plans.ResultType)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprintf(out, "%d plans; best (cost %.0f, initial %.0f):\n%s",
		len(plans.All), plans.BestCost, plans.InitialCost, rendered)
}

func (b *localBackend) explain(sql string, analyze bool, out io.Writer) {
	if !analyze {
		b.plan(sql, out)
		return
	}
	prep, err := b.opt.Prepare(sql)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	an, err := b.opt.ExplainAnalyze(prep, b.opt.Engine())
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprint(out, an.Text)
}

func (b *localBackend) stats(out io.Writer) {
	fmt.Fprintln(out, `error: \stats is not available in local mode (connect to a tqserver or tqcoord)`)
}

func (b *localBackend) run(sql string, out io.Writer) {
	result, plans, trace, err := b.opt.Run(sql)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprint(out, result)
	fmt.Fprintf(out, "(%d tuples; %d plans considered; best cost %.0f; %d tuples transferred)\n",
		result.Len(), len(plans.All), plans.BestCost, trace.TuplesTransferred)
}

// remoteBackend drives a tqserver session. The engine settings live
// server-side; the backend tracks what it set for \set's display.
type remoteBackend struct {
	cl       *server.Client
	addr     string
	engine   string
	parallel string
	mem      string
}

func newRemoteBackend(cl *server.Client, addr string) *remoteBackend {
	return &remoteBackend{cl: cl, addr: addr, engine: "(server default)", parallel: "-", mem: "-"}
}

func (b *remoteBackend) banner() string {
	return "tqp shell — connected to tqserver at " + b.addr + "; \\q quits, \\set changes session settings"
}

func (b *remoteBackend) set(name, value string) error {
	if err := b.cl.Set(context.Background(), name, value); err != nil {
		return err
	}
	b.track(name, value)
	return nil
}

// track records a server-acknowledged setting for \set's display.
func (b *remoteBackend) track(name, value string) {
	switch name {
	case "engine":
		b.engine = value
	case "parallel":
		b.parallel = value
	case "mem":
		b.mem = value
	}
}

func (b *remoteBackend) settings() string {
	return fmt.Sprintf("settings: engine=%s parallel=%s mem=%s (session at %s)",
		b.engine, b.parallel, b.mem, b.addr)
}

func (b *remoteBackend) describe(_ string, out io.Writer) {
	fmt.Fprintln(out, `error: \d is not available in client mode (the catalog lives server-side)`)
}

func (b *remoteBackend) plan(_ string, out io.Writer) {
	fmt.Fprintln(out, `error: \plan is not available in client mode`)
}

func (b *remoteBackend) explain(sql string, analyze bool, out io.Writer) {
	prefix := "EXPLAIN "
	if analyze {
		prefix = "EXPLAIN ANALYZE "
	}
	result, _, err := b.cl.Query(context.Background(), prefix+sql)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	if result == nil || result.Schema().Len() != 1 {
		fmt.Fprint(out, result)
		return
	}
	// The plan text travels as one string column, one row per line; print
	// the lines raw rather than boxing them into a result table.
	for _, t := range result.Tuples() {
		fmt.Fprintln(out, t[0].AsString())
	}
}

func (b *remoteBackend) stats(out io.Writer) {
	st, err := b.cl.Stats(context.Background())
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	head := fmt.Sprintf("endpoint %s — fingerprint %s, %d conns", b.addr, st.Fingerprint, st.Conns)
	if st.UptimeSeconds > 0 {
		head += fmt.Sprintf(", up %s", time.Duration(st.UptimeSeconds*float64(time.Second)).Round(time.Second))
	}
	if st.Queries > 0 {
		head += fmt.Sprintf(", %d queries", st.Queries)
	}
	fmt.Fprintln(out, head)
	fmt.Fprintf(out, "  plan cache: %d hits / %d misses / %d evictions (%d entries)\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.Entries)
	a := st.Admission
	if a != (server.AdmissionStats{}) {
		fmt.Fprintf(out, "  admission: %d admitted, %d rejected, %d timed out; %d active (peak %d), %d queued (peak %d)\n",
			a.Admitted, a.Rejected, a.TimedOut, a.Active, a.PeakActive, a.Queued, a.PeakQueued)
	}
	if len(st.Errors) > 0 {
		codes := make([]string, 0, len(st.Errors))
		for code := range st.Errors {
			codes = append(codes, code)
		}
		sort.Strings(codes)
		fmt.Fprint(out, "  errors:")
		for _, code := range codes {
			fmt.Fprintf(out, " %s=%d", code, st.Errors[code])
		}
		fmt.Fprintln(out)
	}
	printSnapshot(out, "latency", st.Latency)
	printSnapshot(out, "queue wait", st.QueueWait)
	if c := st.Coord; c != nil {
		fmt.Fprintf(out, "  coord: %d shards — %d queries (%d cache hits), %d shard calls, %d retries",
			c.Shards, c.Queries, c.CacheHits, c.ShardCalls, c.Retries)
		if len(c.Fragments) > 0 {
			kinds := make([]string, 0, len(c.Fragments))
			for k := range c.Fragments {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			fmt.Fprint(out, "; fragments")
			for _, k := range kinds {
				fmt.Fprintf(out, " %s=%d", k, c.Fragments[k])
			}
		}
		fmt.Fprintln(out)
	}
}

// printSnapshot renders one latency-histogram summary line, skipping
// sections an older server did not send.
func printSnapshot(out io.Writer, name string, s *obs.Snapshot) {
	if s == nil || s.Count == 0 {
		return
	}
	fmt.Fprintf(out, "  %s: n=%d p50=%s p95=%s p99=%s\n", name, s.Count,
		fmtSecs(s.P50), fmtSecs(s.P95), fmtSecs(s.P99))
}

// fmtSecs renders a quantile in seconds as a rounded duration.
func fmtSecs(v float64) string {
	d := time.Duration(v * float64(time.Second))
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}

func (b *remoteBackend) run(sql string, out io.Writer) {
	result, meta, err := b.cl.Query(context.Background(), sql)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	if result == nil {
		// An in-band SET statement: acknowledged, no result set. Mirror it
		// into the tracked settings so \set displays what the server holds.
		if name, val, isSet, perr := server.ParseSet(sql); isSet && perr == nil {
			b.track(name, val)
		}
		fmt.Fprintln(out, "ok")
		return
	}
	cache := "miss"
	if meta.CacheHit {
		cache = "hit"
	}
	fmt.Fprint(out, result)
	fmt.Fprintf(out, "(%d tuples; plan cache %s; engine %s; %d tuples transferred)\n",
		result.Len(), cache, meta.Engine, meta.TuplesTransferred)
}
