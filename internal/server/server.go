package server

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/obs"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/spill"
	"tqp/internal/stratum"
	"tqp/internal/tsql"
	"tqp/internal/value"
)

// Config parameterizes a Server. The zero value of every field has a
// usable default; only Catalog is required. Two serving constants are not
// configurable: a result streams ResultBatchRows rows per frame, and every
// network write to a client must finish within 30 s (a peer that stops
// reading errors its handler out instead of stalling it).
type Config struct {
	// Addr is the TCP listen address; default "127.0.0.1:0" (an ephemeral
	// port — read the chosen one back with Server.Addr).
	Addr string
	// Catalog is the database served. It must not be mutated while the
	// server runs; its fingerprint is computed once at startup and keys
	// the plan cache.
	Catalog *catalog.Catalog
	// Engine is the default session engine name ("reference", "exec",
	// "parallel"); default "exec".
	Engine string
	// MaxConcurrent caps concurrently executing queries; default
	// GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue; default 4×MaxConcurrent.
	MaxQueue int
	// QueueTimeout is the admission queue deadline; default 2s.
	QueueTimeout time.Duration
	// Workers is the global worker pool divided across admitted queries;
	// default GOMAXPROCS.
	Workers int
	// MemoryBudget is the global working-set bound in bytes divided across
	// admitted queries; 0 = unbudgeted.
	MemoryBudget int64
	// SpillDir roots the budgeted engine's spill files; "" = system temp.
	SpillDir string
	// CacheSize bounds the plan cache (entries); default 256, negative
	// disables caching.
	CacheSize int
	// Seed drives the simulated DBMS's order nondeterminism; default 1.
	// Two servers with equal catalogs, seeds and engine settings return
	// bit-identical result lists for every statement.
	Seed int64
	// DrainTimeout bounds how long Close waits for in-flight queries;
	// default 10s.
	DrainTimeout time.Duration
	// ShardPositions, set when Catalog is one shard of a partitioned
	// database, maps each relation to its rows' global sequence keys (the
	// positions in the unsharded relation, parallel to the stored rows).
	// Partial-plan responses report these so a coordinator can merge
	// shard results deterministically; nil means the catalog is whole and
	// positions are the identity.
	ShardPositions map[string][]int
	// Metrics, when set, is the external registry the server's metric
	// families register into (cmd/tqserver passes the one its
	// -metrics-addr listener serves). When nil the server keeps a private
	// registry — the counters still drive the stats reply's uptime, error
	// and latency sections, they just aren't scrapeable.
	Metrics *obs.Registry
	// QueryLog, when set, receives one structured record per query (see
	// obs.QueryRecord); its slow threshold decides which records pass.
	// Nil disables query logging.
	QueryLog *obs.QueryLog
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Engine == "" {
		c.Engine = "exec"
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server is one running temporal-query service instance.
type Server struct {
	cfg     Config
	lis     *Listener
	fp      string
	cache   *PlanCache[*core.Prepared]
	adm     *admission
	start   time.Time
	metrics *serverMetrics // never nil; backed by Config.Metrics or a private registry
	qlog    *obs.QueryLog

	mu     sync.Mutex
	opts   map[string]*core.Optimizer // per engine-spec name, for planning
	closed bool

	queries sync.WaitGroup // in-flight query executions

	closeOnce sync.Once
	closeErr  error

	// execGate, when set by a test, runs while the query holds its
	// admission slot — the hook the admission and shutdown tests use to
	// make occupancy deterministic without timing games.
	execGate func()
}

// Start launches a server: it binds the listen address, starts the accept
// loop, and returns. Stop it with Close.
func Start(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("server: Config.Catalog is required")
	}
	cfg = cfg.withDefaults()
	// Validate the default engine name (and the session derivation) once at
	// startup rather than on every connection.
	adm := newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout, cfg.Workers, cfg.MemoryBudget)
	if _, err := newSession(cfg.Engine, adm.grant(), cfg.SpillDir); err != nil {
		return nil, err
	}
	lis, err := Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		lis:   lis,
		fp:    cfg.Catalog.Fingerprint(),
		cache: NewPlanCache[*core.Prepared](cfg.CacheSize),
		adm:   adm,
		start: time.Now(),
		qlog:  cfg.QueryLog,
		opts:  make(map[string]*core.Optimizer),
	}
	// The metric families always exist — they feed the stats reply's
	// uptime/error/latency sections — but only register into a scrapeable
	// registry when the caller provides one.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	} else {
		cfg.Catalog.RegisterMetrics(reg)
	}
	s.metrics = newServerMetrics(reg, s)
	lis.Serve(s.openConn)
	return s, nil
}

// openConn gives one connection its session at the server's defaults and
// returns the connection's request handler.
func (s *Server) openConn(w io.Writer) func(*Request) error {
	sess, err := newSession(s.cfg.Engine, s.adm.grant(), s.cfg.SpillDir)
	if err != nil {
		return nil // Start validated this; unreachable in practice
	}
	return func(req *Request) error { return s.handleRequest(req, sess, w) }
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.lis.Addr() }

// CacheStats snapshots the plan cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// AdmissionStats snapshots the admission controller counters.
func (s *Server) AdmissionStats() AdmissionStats { return s.adm.stats() }

// Close shuts the server down gracefully: it stops accepting connections,
// rejects queued and future queries with a shutdown error, drains in-flight
// queries for up to DrainTimeout, then closes every connection. It is
// idempotent — every call returns the first call's outcome — and on a clean
// drain no spill files remain (each query's engine removes its spill
// directory when its evaluation ends). An exceeded drain deadline is
// reported as an error; the stragglers' connections are closed underneath
// them, and their spill cleanup still runs when their evaluations finish.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()

		s.lis.StopAccepting()
		s.adm.close()

		if !waitTimeout(&s.queries, s.cfg.DrainTimeout) {
			s.closeErr = fmt.Errorf("server: close: drain deadline %s exceeded with queries in flight", s.cfg.DrainTimeout)
		}

		// Idle handlers unblock off their closed connections immediately;
		// handlers stuck in a straggler query are already counted in
		// closeErr, so don't wait for them forever.
		s.lis.CloseConns(time.Second)
	})
	return s.closeErr
}

// drained counts a query finished for Close's drain once its answer has
// left w's buffer: Close closes every connection as soon as the drain ends,
// so an answer still buffered then would never reach the client. A failed
// flush is the connection's error, which the request loop's own flush
// reports.
func (s *Server) drained(w io.Writer) {
	if f, ok := w.(interface{ Flush() error }); ok {
		_ = f.Flush()
	}
	s.queries.Done()
}

// waitTimeout waits on wg for at most d; false on timeout. The timer is
// stopped on the wait path (like the admission queue's) rather than left to
// fire — time.After would keep a live timer per call until d elapses.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}

// handleRequest dispatches one request, writing the full response to w. A
// returned error means the connection is unusable; per-request failures are
// written as error frames and return nil.
func (s *Server) handleRequest(req *Request, sess *session, w io.Writer) error {
	switch req.Op {
	case OpPing:
		return WriteFrame(w, &Response{Kind: KindPong})
	case OpStats:
		return WriteFrame(w, &Response{Kind: KindStats, Stats: s.statsReply()})
	case OpSet:
		if err := sess.set(strings.ToLower(req.Name), req.Value); err != nil {
			return s.replyError(w, CodeSet, err)
		}
		return WriteFrame(w, &Response{Kind: KindOK})
	case OpQuery:
		if name, val, isSet, err := ParseSet(req.SQL); isSet {
			if err == nil {
				err = sess.set(name, val)
			}
			if err != nil {
				return s.replyError(w, CodeSet, err)
			}
			return WriteFrame(w, &Response{Kind: KindOK})
		}
		return s.runQuery(req.SQL, sess, w)
	case OpPartial:
		return s.runPartial(req.Plan, w)
	default:
		return s.replyError(w, CodeProto, fmt.Errorf("server: unknown op %q", req.Op))
	}
}

func (s *Server) statsReply() *StatsReply {
	lat := s.metrics.latency.Snapshot()
	qw := s.metrics.queueWait.Snapshot()
	return &StatsReply{
		Cache:         s.cache.Stats(),
		Admission:     s.adm.stats(),
		Conns:         s.lis.Conns(),
		Fingerprint:   s.fp,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Queries:       s.metrics.queries.Value(),
		Errors:        s.metrics.errorCounts(),
		Latency:       &lat,
		QueueWait:     &qw,
	}
}

// WriteError writes one typed error frame.
func WriteError(w io.Writer, code string, err error) error {
	return WriteFrame(w, &Response{Kind: KindError, Err: &WireError{Code: code, Msg: err.Error()}})
}

// replyError counts the failure under its code and writes the error frame.
func (s *Server) replyError(w io.Writer, code string, err error) error {
	s.metrics.errorCounter(code).Inc()
	return WriteError(w, code, err)
}

// PrepareCode classifies a statement that failed to prepare: a parse error
// if it does not even parse, else a plan error (name resolution, planning,
// enumeration, site validation).
func PrepareCode(opt *core.Optimizer, sql string) string {
	if _, err := opt.Parse(sql); err != nil {
		return CodeParse
	}
	return CodePlan
}

// queryTiming is one query's latency breakdown, filled in as runQuery
// moves through its phases and flushed to the metrics registry and query
// log when the query ends (success and failure alike).
type queryTiming struct {
	queue, plan, exec, stream time.Duration
}

// finishQuery flushes one completed query's measurements. code is the wire
// error code, empty on success.
func (s *Server) finishQuery(t *queryTiming, sql string, spec eval.EngineSpec, prep *core.Prepared, hit bool, rows int, trace *stratum.Trace, code string, started time.Time) {
	total := t.queue + t.plan + t.exec + t.stream
	s.metrics.latency.Observe(total.Seconds())
	s.metrics.queueWait.Observe(t.queue.Seconds())
	if code == "" {
		s.metrics.rows.Observe(float64(rows))
	}
	if trace != nil {
		s.metrics.spillBytes.Add(trace.SpilledBytes)
		s.metrics.transferred.Add(int64(trace.TuplesTransferred))
	}
	if !s.qlog.Enabled() {
		return
	}
	rec := &obs.QueryRecord{
		Time:         started,
		SQLHash:      obs.Hash(NormalizeSQL(sql)),
		Engine:       spec.Name,
		Parallelism:  spec.Parallelism,
		MemoryBudget: spec.MemoryBudget,
		CacheHit:     hit,
		Rows:         int64(rows),
		QueueMS:      float64(t.queue) / float64(time.Millisecond),
		PlanMS:       float64(t.plan) / float64(time.Millisecond),
		ExecMS:       float64(t.exec) / float64(time.Millisecond),
		StreamMS:     float64(t.stream) / float64(time.Millisecond),
		Code:         code,
	}
	if prep != nil {
		rec.Fingerprint = prep.Fingerprint
	}
	if trace != nil {
		rec.Spill = trace.Spill
	}
	s.qlog.Emit(rec)
}

// runQuery is the serving path: admission, plan-cache lookup (preparing on
// a miss), execution on the session's engine share, and batched result
// streaming. An EXPLAIN [ANALYZE] prefix reuses the same path — same
// admission, same plan cache — but returns the rendered plan as a
// single-column result instead of (EXPLAIN) or alongside running (EXPLAIN
// ANALYZE) the statement's own rows.
func (s *Server) runQuery(sql string, sess *session, w io.Writer) error {
	mode, sql := tsql.StripExplain(sql)
	spec := sess.spec
	a, code, err := s.admit(w, true)
	defer a.done()

	// The failure path flushes timing through finish; the success path
	// flushes itself with the full measurements.
	t := queryTiming{queue: a.queue}
	started := a.started
	var prep *core.Prepared
	var trace *stratum.Trace
	hit := false
	finish := func(code string) {
		s.finishQuery(&t, sql, spec, prep, hit, 0, trace, code, started)
	}
	if err != nil {
		if a.entered {
			finish(code)
		}
		return s.replyError(w, code, err)
	}

	key := PlanKey(s.fp, spec.Name, sql)
	prep, hit = s.cache.Get(key)
	opt := s.optimizerFor(spec)
	if !hit {
		planStart := time.Now()
		var err error
		prep, err = opt.Prepare(sql)
		t.plan = time.Since(planStart)
		if err != nil {
			code := PrepareCode(opt, sql)
			finish(code)
			return s.replyError(w, code, err)
		}
		s.cache.Put(key, prep)
	}

	var result *relation.Relation
	execStart := time.Now()
	switch mode {
	case tsql.ExplainPlan:
		text, err := opt.Explain(prep.Plan, prep.ResultType)
		t.exec = time.Since(execStart)
		if err != nil {
			finish(CodePlan)
			return s.replyError(w, CodePlan, err)
		}
		result = textRelation(text)
	case tsql.ExplainAnalyze:
		an, err := opt.ExplainAnalyze(prep, spec)
		t.exec = time.Since(execStart)
		if err != nil {
			finish(CodeExec)
			return s.replyError(w, CodeExec, err)
		}
		result, trace = textRelation(an.Text), an.Trace
	default:
		var err error
		result, trace, err = opt.ExecutePlan(prep.Plan, spec)
		t.exec = time.Since(execStart)
		if err != nil {
			finish(CodeExec)
			return s.replyError(w, CodeExec, err)
		}
	}
	a.release()

	streamStart := time.Now()
	done := &Done{
		Tuples:   result.Len(),
		Plans:    prep.PlanCount,
		CacheHit: hit,
		BestCost: prep.BestCost,
		Engine:   spec.Name,
	}
	if trace != nil {
		done.TuplesTransferred = trace.TuplesTransferred
	}
	err = streamResult(w, result, nil, ResultBatchRows, done)
	t.stream = time.Since(streamStart)
	s.finishQuery(&t, sql, spec, prep, hit, result.Len(), trace, "", started)
	return err
}

// StreamResult writes a materialized result as protocol frames — one
// schema frame, rows frames of batchRows rows (ResultBatchRows when
// batchRows ≤ 0), the terminal done frame — the server's answer to a
// query. Exported so the coordinator's frontend streams its gathered
// results with the exact same encoding.
func StreamResult(w io.Writer, result *relation.Relation, batchRows int, done *Done) error {
	if batchRows <= 0 {
		batchRows = ResultBatchRows
	}
	return streamResult(w, result, nil, batchRows, done)
}

// streamResult is the one place the frame layout of a result is decided:
// a schema frame, one spill block per rows frame, a done frame. keys, when
// non-nil, are the rows' sequence keys (a pushed-down fragment's
// provenance) and the schema frame says so; otherwise every block carries
// zero keys, which the client drops.
func streamResult(w io.Writer, result *relation.Relation, keys []int, batchRows int, done *Done) error {
	if err := WriteFrame(w, &Response{
		Kind:  KindSchema,
		Cols:  colsOf(result.Schema()),
		Order: orderOf(result.Order()),
		Keyed: keys != nil,
	}); err != nil {
		return err
	}
	// The rows are encoded straight off the result's batch: no tuple is
	// built.
	b := result.Columns()
	n := b.Rows()
	var zeros []int
	if keys == nil {
		zeros = make([]int, min(batchRows, n))
	}
	rows := Response{Kind: KindRows}
	for from := 0; from < n; from += batchRows {
		to := min(from+batchRows, n)
		var seqs []int
		if keys != nil {
			seqs = keys[from:to]
		} else {
			seqs = zeros[:to-from]
		}
		rows.Block = spill.EncodeBlock(rows.Block[:0], seqs, b, from)
		if err := WriteFrame(w, &rows); err != nil {
			return err
		}
	}
	return WriteFrame(w, &Response{Kind: KindDone, Done: done})
}

// textRelation wraps rendered plan text as a single-column result
// relation, one row per line — EXPLAIN output travels through the normal
// result-streaming protocol, so every client renders it unchanged.
func textRelation(text string) *relation.Relation {
	sch, err := schema.New(schema.Attr("QUERY PLAN", value.KindString))
	if err != nil {
		panic(err) // static schema; cannot fail
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	rows := make([]relation.Tuple, len(lines))
	for i, line := range lines {
		rows[i] = relation.NewTuple(value.String_(line))
	}
	return relation.FromTuplesTrusted(sch, rows)
}

// runPartial executes one pushed-down plan fragment against the server's
// catalog (shard) and streams the result with per-row sequence keys. It
// takes an admission slot like a query — a fragment is a query's work,
// just with the planning already done coordinator-side — but skips the
// plan cache: fragments arrive pre-planned.
func (s *Server) runPartial(plan *WirePlan, w io.Writer) error {
	a, code, err := s.admit(w, false)
	defer a.done()
	if err != nil {
		return WriteError(w, code, err)
	}
	frag, err := DecodePlan(plan)
	if err != nil {
		return WriteError(w, CodeProto, err)
	}
	result, seqs, err := exec.RunFragment(frag, s.cfg.Catalog, s.cfg.ShardPositions)
	if err != nil {
		return WriteError(w, CodeExec, err)
	}
	a.release()
	return streamResult(w, result, seqs, ResultBatchRows, &Done{Tuples: result.Len()})
}

// admitted is one request on the path queries and fragments share: counted
// in flight for Close's drain, then holding an admission slot.
type admitted struct {
	s       *Server
	w       io.Writer
	entered bool          // counted in flight; done counts it drained
	held    bool          // holds an admission slot
	started time.Time     // when it entered
	queue   time.Duration // its admission wait
}

// admit counts a request in flight and takes an admission slot for it,
// then runs the test gate while the slot is held; count adds the request to
// the served-queries total once it is in flight. On failure it returns the
// wire code to answer with, and entered says whether the request was in
// flight by then (a closing server refuses it before). Defer done either
// way.
func (s *Server) admit(w io.Writer, count bool) (admitted, string, error) {
	// Count the request as in flight before touching admission, under the
	// same lock Close uses to flip closed — after Close observes closed,
	// no new request can register, which makes the drain wait race-free.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return admitted{}, CodeShutdown, ErrClosing
	}
	s.queries.Add(1)
	gate := s.execGate
	s.mu.Unlock()

	a := admitted{s: s, w: w, entered: true}
	if count {
		s.metrics.queries.Inc()
	}
	a.started = time.Now()
	_, err := s.adm.acquire()
	a.queue = time.Since(a.started)
	if err != nil {
		if errors.Is(err, ErrClosing) {
			return a, CodeShutdown, err
		}
		return a, CodeAdmission, err
	}
	a.held = true
	if gate != nil {
		gate()
	}
	return a, "", nil
}

// release returns the admission slot; later calls do nothing. The slot
// covers the expensive phases — planning and execution. It releases before
// result streaming: the result is fully materialized by then, so a slow
// (or stalled) reader must not keep a slot from the queue while bytes
// trickle out.
func (a *admitted) release() {
	if a.held {
		a.held = false
		a.s.adm.release()
	}
}

// done releases the slot if still held and counts an in-flight request
// drained.
func (a *admitted) done() {
	a.release()
	if a.entered {
		a.s.drained(a.w)
	}
}

// optimizerFor returns the planning optimizer calibrated to the spec,
// building one lazily per distinct engine-spec name. Optimizers are safe
// for concurrent use (pinned by internal/core's concurrency suite), so one
// instance per spec serves every connection.
func (s *Server) optimizerFor(spec eval.EngineSpec) *core.Optimizer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if opt, ok := s.opts[spec.Name]; ok {
		return opt
	}
	opt := core.New(s.cfg.Catalog, core.WithEngine(spec), core.WithDBMSSeed(s.cfg.Seed))
	s.opts[spec.Name] = opt
	return opt
}
