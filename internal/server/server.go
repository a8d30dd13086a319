package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
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
// usable default; only Catalog is required.
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
	// BatchRows is the result streaming batch size; default 256.
	BatchRows int
	// WriteTimeout bounds each network write to a client; default 30s. A
	// peer that stops reading stalls its connection's writes, and this
	// deadline is what unsticks the handler (admission slots are already
	// safe: they release before result streaming begins).
	WriteTimeout time.Duration
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
	if c.BatchRows <= 0 {
		c.BatchRows = 256
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
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
	ln      net.Listener
	fp      string
	cache   *PlanCache[*core.Prepared]
	adm     *admission
	start   time.Time
	metrics *serverMetrics // never nil; backed by Config.Metrics or a private registry
	qlog    *obs.QueryLog

	mu     sync.Mutex
	conns  map[net.Conn]bool
	opts   map[string]*core.Optimizer // per engine-spec name, for planning
	closed bool

	queries  sync.WaitGroup // in-flight query executions
	handlers sync.WaitGroup // connection handler goroutines
	accept   sync.WaitGroup // the accept loop

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
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		fp:    cfg.Catalog.Fingerprint(),
		cache: NewPlanCache[*core.Prepared](cfg.CacheSize),
		adm:   adm,
		start: time.Now(),
		qlog:  cfg.QueryLog,
		conns: make(map[net.Conn]bool),
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
	s.accept.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

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

		s.ln.Close()
		s.accept.Wait()
		s.adm.close()

		if !waitTimeout(&s.queries, s.cfg.DrainTimeout) {
			s.closeErr = fmt.Errorf("server: close: drain deadline %s exceeded with queries in flight", s.cfg.DrainTimeout)
		}

		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()

		// Idle handlers unblock off their closed connections immediately;
		// handlers stuck in a straggler query are already counted in
		// closeErr, so don't wait for them forever.
		waitTimeout(&s.handlers, time.Second)
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

func (s *Server) acceptLoop() {
	defer s.accept.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.handlers.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// handleConn serves one connection: a session plus a request loop.
func (s *Server) handleConn(conn net.Conn) {
	defer s.handlers.Done()
	defer s.dropConn(conn)

	sess, err := newSession(s.cfg.Engine, s.adm.grant(), s.cfg.SpillDir)
	if err != nil {
		return // Start validated this; unreachable in practice
	}
	bw := bufio.NewWriter(deadlineWriter{conn: conn, timeout: s.cfg.WriteTimeout})
	ServeRequests(bufio.NewReader(conn), bw, func(req *Request) error {
		return s.handleRequest(req, sess, bw)
	})
}

// ServeRequests runs one connection's request loop: it reads request
// frames from r, hands each to handle, which writes its answer to bw, and
// flushes bw after every answer. A well-framed request whose payload does
// not decode is answered with a proto error and the loop goes on, since
// the frame was consumed whole; a hangup, a framing error or a failed
// write ends it. The server and the coordinator's frontend both serve
// through it, so they keep one framing contract.
func ServeRequests(r io.Reader, bw *bufio.Writer, handle func(*Request) error) {
	for {
		var req Request
		err := ReadFrame(r, &req)
		switch {
		case errors.Is(err, errBadPayload):
			err = writeError(bw, CodeProto, err)
		case err != nil:
			return
		default:
			err = handle(&req)
		}
		if err != nil || bw.Flush() != nil {
			return
		}
	}
}

// deadlineWriter arms a fresh write deadline before every underlying
// write, so a peer that stops reading errors the handler out within
// timeout instead of blocking it forever. Per-write (not per-response)
// granularity: a large result to a slow-but-reading client keeps making
// progress, only a genuine stall trips the deadline.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	if w.timeout > 0 {
		if err := w.conn.SetWriteDeadline(time.Now().Add(w.timeout)); err != nil {
			return 0, err
		}
	}
	return w.conn.Write(p)
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
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	lat := s.metrics.latency.Snapshot()
	qw := s.metrics.queueWait.Snapshot()
	return &StatsReply{
		Cache:         s.cache.Stats(),
		Admission:     s.adm.stats(),
		Conns:         conns,
		Fingerprint:   s.fp,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Queries:       s.metrics.queries.Value(),
		Errors:        s.metrics.errorCounts(),
		Latency:       &lat,
		QueueWait:     &qw,
	}
}

// writeError writes one typed error frame.
func writeError(w io.Writer, code string, err error) error {
	return WriteFrame(w, &Response{Kind: KindError, Err: &WireError{Code: code, Msg: err.Error()}})
}

// replyError counts the failure under its code and writes the error frame.
func (s *Server) replyError(w io.Writer, code string, err error) error {
	s.metrics.errorCounter(code).Inc()
	return writeError(w, code, err)
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
		rec.PeakBytes = trace.PeakBytes
		rec.SpilledOps = trace.SpilledOps
		rec.SpilledBytes = trace.SpilledBytes
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
	// Count the query as in flight before touching admission, under the
	// same lock Close uses to flip closed — after Close observes closed,
	// no new query can register, which makes the drain wait race-free.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.replyError(w, CodeShutdown, ErrClosing)
	}
	s.queries.Add(1)
	gate := s.execGate
	s.mu.Unlock()
	defer s.drained(w)

	mode, stripped := tsql.StripExplain(sql)
	sql = stripped
	s.metrics.queries.Inc()
	started := time.Now()
	spec := sess.spec

	// The failure path flushes timing through finish; the success path
	// nils it out and flushes itself with the full measurements.
	var t queryTiming
	var prep *core.Prepared
	var trace *stratum.Trace
	hit := false
	finish := func(code string) {
		s.finishQuery(&t, sql, spec, prep, hit, 0, trace, code, started)
	}

	if _, err := s.adm.acquire(); err != nil {
		t.queue = time.Since(started)
		code := CodeAdmission
		if errors.Is(err, ErrClosing) {
			code = CodeShutdown
		}
		finish(code)
		return s.replyError(w, code, err)
	}
	t.queue = time.Since(started)
	// The slot covers the expensive phases — planning and execution. It
	// releases before result streaming: the result is fully materialized
	// by then, so a slow (or stalled) reader must not keep a slot from
	// the queue while bytes trickle out.
	released := false
	release := func() {
		if !released {
			released = true
			s.adm.release()
		}
	}
	defer release()
	if gate != nil {
		gate()
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
			// Classify exactly: if the statement does not even parse it
			// is a parse error; anything after (name resolution, planning,
			// enumeration, site validation) is a plan error.
			code := CodePlan
			if _, perr := opt.Parse(sql); perr != nil {
				code = CodeParse
			}
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
	release()

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
	err := StreamResult(w, result, s.cfg.BatchRows, done)
	t.stream = time.Since(streamStart)
	s.finishQuery(&t, sql, spec, prep, hit, result.Len(), trace, "", started)
	return err
}

// StreamResult writes a materialized result as protocol frames — one
// schema frame, batched rows frames, the terminal done frame — the
// server's answer to a query. Exported so the coordinator's frontend
// streams its gathered results with the exact same encoding.
func StreamResult(w io.Writer, result *relation.Relation, batchRows int, done *Done) error {
	return streamResult(w, result, nil, batchRows, done)
}

// streamResult is the one place the frame layout of a result is decided:
// a schema frame, one spill block per rows frame, a done frame. keys, when
// non-nil, are the rows' sequence keys (a pushed-down fragment's
// provenance) and the schema frame says so; otherwise every block carries
// zero keys, which the client drops.
func streamResult(w io.Writer, result *relation.Relation, keys []int, batchRows int, done *Done) error {
	if batchRows <= 0 {
		batchRows = 256
	}
	if err := WriteFrame(w, &Response{
		Kind:  KindSchema,
		Cols:  colsOf(result.Schema()),
		Order: orderOf(result.Order()),
		Keyed: keys != nil,
	}); err != nil {
		return err
	}
	// The rows are encoded straight off the result's batch: a
	// columnar-primary result (every engine result is) never builds a tuple.
	b, _ := result.Columns()
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
	r := relation.New(sch)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		r.Append(relation.NewTuple(value.String_(line)))
	}
	return r
}

// runPartial executes one pushed-down plan fragment against the server's
// catalog (shard) and streams the result with per-row sequence keys. It
// takes an admission slot like a query — a fragment is a query's work,
// just with the planning already done coordinator-side — but skips the
// plan cache: fragments arrive pre-planned.
func (s *Server) runPartial(plan *WirePlan, w io.Writer) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return writeError(w, CodeShutdown, ErrClosing)
	}
	s.queries.Add(1)
	gate := s.execGate
	s.mu.Unlock()
	defer s.drained(w)

	if _, err := s.adm.acquire(); err != nil {
		code := CodeAdmission
		if errors.Is(err, ErrClosing) {
			code = CodeShutdown
		}
		return writeError(w, code, err)
	}
	released := false
	release := func() {
		if !released {
			released = true
			s.adm.release()
		}
	}
	defer release()
	if gate != nil {
		gate()
	}

	frag, err := DecodePlan(plan)
	if err != nil {
		return writeError(w, CodeProto, err)
	}
	result, seqs, err := exec.RunFragment(frag, s.cfg.Catalog, s.cfg.ShardPositions)
	if err != nil {
		return writeError(w, CodeExec, err)
	}
	release()
	return streamResult(w, result, seqs, s.cfg.BatchRows, &Done{Tuples: result.Len()})
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
