package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/coord"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/relation"
	"tqp/internal/server"
	"tqp/internal/shard"
	"tqp/internal/stratum"
	"tqp/internal/tsql"
)

// sizes fixes how much data each workload runs on. fullSizes is what the
// benchmark measures; the self-tests run the same code on testSizes.
type sizes struct {
	coldEmployees int   // plan.cold: tiny data, so planning is the operation
	statements    int   // plan.cold: distinct statements, more than the plan cache holds
	employees     int   // exec.*, wire.scan, fleet.paper
	budget        int64 // exec.budget: working-set bound in bytes
	eras          int   // store.*: segments in the store at the start
	eraRows       int   // store.*: rows per era, and per ingested batch
	ingestRound   int   // store.ingest: appends per round
}

var fullSizes = sizes{
	coldEmployees: 100, statements: 1024, employees: 2000, budget: 512 << 10,
	eras: 16, eraRows: 2048, ingestRound: 16,
}

// workloadLimit bounds one workload's whole run, inside the driver's own 180
// s: a statement still unanswered when it expires has failed. There is no
// limit per statement, because server.Client must not be handed a context
// that is cancelled as soon as the call returns (see README.md, known traps).
const workloadLimit = 150 * time.Second

// env is what a workload's set-up is given: the seed its inputs derive
// from, the data sizes, a scratch directory inside the checkout, and the
// context every statement of the run is sent under.
type env struct {
	seed int64
	sz   sizes
	tmp  string
	ctx  context.Context
}

// dir makes a fresh directory under the scratch directory.
func (e *env) dir(name string) (string, error) { return os.MkdirTemp(e.tmp, name+"-") }

type workload struct {
	name  string
	setup func(e *env) (*instance, error)
}

var workloads = []workload{
	{"plan.cold", setupPlanCold},
	{"exec.paper", func(e *env) (*instance, error) { return setupExec(e, false) }},
	{"exec.budget", func(e *env) (*instance, error) { return setupExec(e, true) }},
	{"wire.scan", setupWireScan},
	{"fleet.paper", setupFleet},
	{"store.travel", setupStoreTravel},
	{"store.ingest", setupStoreIngest},
}

func employeeDB(e *env, employees int) *catalog.Catalog {
	return datagen.EmployeeDB(datagen.EmployeeSpec{
		Employees: employees, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: e.seed,
	})
}

// newOptimizer is the library front door. Every front door in the benchmark
// runs the simulated DBMS on seed 1, so all of them owe the same lists.
func newOptimizer(cat *catalog.Catalog, spec eval.EngineSpec, opts ...core.Option) *core.Optimizer {
	return core.New(cat, append([]core.Option{core.WithEngine(spec), core.WithDBMSSeed(1)}, opts...)...)
}

// oracle evaluates a prepared plan on the reference evaluator: the list
// every engine and every front door must reproduce bit for bit.
func oracle(opt *core.Optimizer, plan algebra.Node) (*relation.Relation, error) {
	want, _, err := opt.ExecutePlan(plan, eval.Reference())
	return want, err
}

func rowsOf(cat *catalog.Catalog, name string) int {
	r, err := cat.Resolve(name)
	if err != nil {
		return 0
	}
	return r.Len()
}

// checkFiltered rejects a filtered statement that keeps nothing or
// everything: agreement between engines proves little on such a result.
func checkFiltered(sql string, out, in int) error {
	if out <= 0 || out >= in {
		return fmt.Errorf("statement keeps %d of %d rows, so its filter is not exercised: %s", out, in, sql)
	}
	return nil
}

// countTrace records the counters the stratum reports for one execution.
func countTrace(rec *recorder, tr *stratum.Trace) {
	rec.count("tuples_transferred", float64(tr.TuplesTransferred))
	rec.count("peak_bytes", float64(tr.PeakBytes))
	rec.count("spill_bytes", float64(tr.SpilledBytes))
	rec.count("spill_ops", float64(tr.SpilledOps))
	rec.count("segments_scanned", float64(tr.SegmentsScanned))
	rec.count("segments_skipped", float64(tr.SegmentsSkipped))
}

// probePlanning times, on one statement, the stages of Optimizer.Prepare
// that can be called from outside package core.
func probePlanning(rec *recorder, op, parent int, opt *core.Optimizer, sql string) error {
	id := rec.begin(op, parent, "parse")
	q, err := tsql.Parse(sql)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin(op, parent, "translate")
	initial, err := q.Plan(opt.Catalog())
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin(op, parent, "beam")
	ps, err := opt.OptimizeBeam(initial, q.ResultType(), q.OrderBy())
	rec.end(id)
	if err != nil {
		return err
	}
	rec.count("plans_enumerated", float64(len(ps.All)))
	return nil
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// probeServing repeats in process what a tqserver does for a planned
// statement: execute it and encode the result as protocol frames.
func probeServing(rec *recorder, op, parent int, opt *core.Optimizer, plan algebra.Node, spec eval.EngineSpec) error {
	id := rec.begin(op, parent, "execute")
	res, tr, err := opt.ExecutePlan(plan, spec)
	rec.end(id)
	if err != nil {
		return err
	}
	countTrace(rec, tr)
	var w countingWriter
	id = rec.begin(op, parent, "stream_encode")
	err = server.StreamResult(&w, res, 0, &server.Done{Tuples: res.Len()})
	rec.end(id)
	if res.Len() > 0 {
		rec.count("frame_bytes_per_row", float64(w.n)/float64(res.Len()))
	}
	return err
}

// front is a tqserver on loopback TCP with one connection per client.
type front struct {
	ctx     context.Context
	srv     *server.Server
	clients []*server.Client
}

func startFront(ctx context.Context, cat *catalog.Catalog, clients int) (*front, error) {
	srv, err := server.Start(server.Config{Catalog: cat, Seed: 1})
	if err != nil {
		return nil, err
	}
	f := &front{ctx: ctx, srv: srv}
	for c := 0; c < clients; c++ {
		cl, err := server.Dial(ctx, srv.Addr())
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, cl)
	}
	return f, nil
}

func (f *front) close() {
	for _, cl := range f.clients {
		cl.Close()
	}
	f.srv.Close()
}

// query is one round trip: statement text in, materialized relation out.
func (f *front) query(c int, sql string) (*relation.Relation, *server.QueryMeta, time.Duration, error) {
	start := time.Now()
	got, meta, err := f.clients[c].Query(f.ctx, sql)
	return got, meta, time.Since(start), err
}

func (f *front) serverLayers(p *pass, m map[string]float64) error {
	m["admission_queued_peak"] = float64(f.srv.AdmissionStats().PeakQueued)
	return nil
}

func boolCount(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// plan.cold: 2 clients send a cycle of distinct statements, longer than
// the plan cache, to a tqserver over tiny data. Each operation is a cache
// miss, so nearly all of it is parsing and beam enumeration.
func setupPlanCold(e *env) (*instance, error) {
	db := employeeDB(e, e.sz.coldEmployees)
	spec := exec.NewSpec(exec.Config{})
	opt := newOptimizer(db, spec)
	stmts := coldStatements(e.seed, e.sz.statements)
	// The oracle is the reference evaluator on the statement's initial
	// plan. The server picks its own plan, and Definition 5.1 leaves the
	// order inside ORDER BY ties to the plan, so the comparison is ≡SQL
	// rather than bit for bit.
	type expect struct {
		want *relation.Relation
		rt   equiv.ResultType
		by   relation.OrderSpec
	}
	wants := make([]expect, len(stmts))
	stored := rowsOf(db, "EMPLOYEE")
	for i, sql := range stmts {
		q, err := tsql.Parse(sql)
		if err != nil {
			return nil, err
		}
		initial, err := q.Plan(db)
		if err != nil {
			return nil, err
		}
		want, err := opt.Reference(initial)
		if err != nil {
			return nil, err
		}
		if err := checkFiltered(sql, want.Len(), stored); err != nil {
			return nil, err
		}
		wants[i] = expect{want, q.ResultType(), q.OrderBy()}
	}
	f, err := startFront(e.ctx, db, 2)
	if err != nil {
		return nil, err
	}
	in := &instance{clients: 2, close: f.close, layers: f.serverLayers}
	in.op = func(c, i int, rec *recorder) (time.Duration, error) {
		n := i % len(stmts)
		root := rec.begin(i, 0, "op")
		defer func() { rec.end(root) }()
		id := rec.begin(i, root, "roundtrip")
		got, meta, lat, err := f.query(c, stmts[n])
		rec.end(id)
		if err != nil {
			return 0, err
		}
		if meta.CacheHit {
			return 0, fmt.Errorf("statement %d was served from the plan cache", n)
		}
		if ok, err := equiv.CheckSQL(wants[n].rt, wants[n].by, wants[n].want, got); err != nil || !ok {
			return 0, fmt.Errorf("statement %d: result is not ≡SQL to the oracle (%v)", n, err)
		}
		if rec == nil {
			return lat, nil
		}
		rec.count("cache_hit", 0)
		id = rec.begin(i, root, "prepare")
		prep, err := opt.Prepare(stmts[n])
		rec.end(id)
		if err != nil {
			return 0, err
		}
		if err := probePlanning(rec, i, root, opt, stmts[n]); err != nil {
			return 0, err
		}
		return lat, probeServing(rec, i, root, opt, prep.Plan, spec)
	}
	in.verify = func() error {
		if st := f.srv.CacheStats(); st.Hits != 0 {
			return fmt.Errorf("plan cache hit %d times; every statement should miss", st.Hits)
		}
		return nil
	}
	return in, nil
}

// exec.paper and exec.budget: one library caller executes the prepared
// paper statement, unbudgeted or under a memory budget that forces the
// grace-hash operators to spill.
func setupExec(e *env, budgeted bool) (*instance, error) {
	db := employeeDB(e, e.sz.employees)
	plain := exec.NewSpec(exec.Config{})
	spec := plain
	if budgeted {
		dir, err := e.dir("spill")
		if err != nil {
			return nil, err
		}
		spec = exec.NewSpec(exec.Config{MemoryBudget: e.sz.budget, SpillDir: dir})
	}
	// Both workloads plan for the unbudgeted engine, so they run one plan.
	opt := newOptimizer(db, plain)
	prep, err := opt.Prepare(paperSQL)
	if err != nil {
		return nil, err
	}
	want, err := oracle(opt, prep.Plan)
	if err != nil {
		return nil, err
	}
	if err := checkFiltered(paperSQL, want.Len(), rowsOf(db, "EMPLOYEE")); err != nil {
		return nil, err
	}
	in := &instance{clients: 1}
	in.op = func(_, i int, rec *recorder) (time.Duration, error) {
		root := rec.begin(i, 0, "op")
		defer func() { rec.end(root) }()
		id := rec.begin(i, root, "execute")
		start := time.Now()
		got, tr, err := opt.ExecutePlan(prep.Plan, spec)
		lat := time.Since(start)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		if !want.EqualAsList(got) {
			return 0, errors.New("result differs from the oracle's list")
		}
		if budgeted && tr.SpilledBytes == 0 {
			return 0, errors.New("nothing spilled under the memory budget")
		}
		countTrace(rec, tr)
		if budgeted && rec != nil {
			id := rec.begin(i, root, "execute_unbudgeted")
			_, _, err = opt.ExecutePlan(prep.Plan, plain)
			rec.end(id)
		}
		return lat, err
	}
	return in, nil
}

// wire.scan: one client fetches every EMPLOYEE row from a tqserver whose
// plan cache is warm. Executing the scan is cheap; encoding, the socket
// and decoding are the operation.
func setupWireScan(e *env) (*instance, error) {
	db := employeeDB(e, e.sz.employees)
	spec := exec.NewSpec(exec.Config{})
	opt := newOptimizer(db, spec)
	prep, err := opt.Prepare(scanSQL)
	if err != nil {
		return nil, err
	}
	want, err := oracle(opt, prep.Plan)
	if err != nil {
		return nil, err
	}
	stored, err := db.Resolve("EMPLOYEE")
	if err != nil {
		return nil, err
	}
	if !sameMultiset(relationKeys(want), relationKeys(stored)) {
		return nil, errors.New("the oracle's scan does not hold the generated rows")
	}
	f, err := startFront(e.ctx, db, 1)
	if err != nil {
		return nil, err
	}
	in := &instance{clients: 1, close: f.close, layers: f.serverLayers}
	in.op = func(c, i int, rec *recorder) (time.Duration, error) {
		root := rec.begin(i, 0, "op")
		defer func() { rec.end(root) }()
		id := rec.begin(i, root, "roundtrip")
		got, meta, lat, err := f.query(c, scanSQL)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		if i > 0 && !meta.CacheHit {
			return 0, errors.New("plan cache missed on a warm statement")
		}
		if !want.EqualAsList(got) {
			return 0, errors.New("result differs from the oracle's list")
		}
		if rec == nil {
			return lat, nil
		}
		rec.count("cache_hit", boolCount(meta.CacheHit))
		return lat, probeServing(rec, i, root, opt, prep.Plan, spec)
	}
	return in, nil
}

// fleet is a coordinator over in-process shard servers on loopback TCP.
type fleet struct {
	ctx     context.Context
	m       *shard.Map
	servers []*server.Server
	coord   *coord.Coordinator
}

func startFleet(ctx context.Context, db *catalog.Catalog, spec eval.EngineSpec, shards int) (*fleet, error) {
	m, err := shard.NewMapMode(db, shards, shard.Auto)
	if err != nil {
		return nil, err
	}
	fl := &fleet{ctx: ctx, m: m}
	addrs := make([]string, shards)
	for i := range addrs {
		sub, pos, err := m.Partition(i)
		if err != nil {
			fl.close()
			return nil, err
		}
		srv, err := server.Start(server.Config{Catalog: sub, ShardPositions: pos, Seed: 1})
		if err != nil {
			fl.close()
			return nil, err
		}
		fl.servers = append(fl.servers, srv)
		addrs[i] = srv.Addr()
	}
	fl.coord, err = coord.New(ctx, coord.Config{Catalog: db, Addrs: addrs, Spec: spec, Seed: 1})
	if err != nil {
		fl.close()
		return nil, err
	}
	return fl, nil
}

func (fl *fleet) close() {
	if fl.coord != nil {
		fl.coord.Close()
	}
	for _, srv := range fl.servers {
		srv.Close()
	}
}

func (fl *fleet) query(sql string) (*relation.Relation, *coord.Meta, time.Duration, error) {
	start := time.Now()
	got, meta, err := fl.coord.Query(fl.ctx, sql)
	return got, meta, time.Since(start), err
}

// fleet.paper: one caller runs the paper statement through a coordinator
// over 2 shard servers, on the data and statement of exec.paper.
func setupFleet(e *env) (*instance, error) {
	const shards = 2
	db := employeeDB(e, e.sz.employees)
	spec := exec.NewSpec(exec.Config{})
	// The coordinator plans with the scale-out cost calibration; the oracle
	// plans the same way, so that it evaluates the coordinator's plan.
	opt := newOptimizer(db, spec, core.WithCostParams(core.ShardedCostParams(spec, shards)))
	prep, err := opt.Prepare(paperSQL)
	if err != nil {
		return nil, err
	}
	want, err := oracle(opt, prep.Plan)
	if err != nil {
		return nil, err
	}
	if err := checkFiltered(paperSQL, want.Len(), rowsOf(db, "EMPLOYEE")); err != nil {
		return nil, err
	}
	fl, err := startFleet(e.ctx, db, spec, shards)
	if err != nil {
		return nil, err
	}
	var one *fleet // the 1-shard fleet of the traced pass, started on first use
	var seen coord.Stats
	in := &instance{clients: 1}
	in.close = func() {
		fl.close()
		if one != nil {
			one.close()
		}
	}
	in.op = func(_, i int, rec *recorder) (time.Duration, error) {
		root := rec.begin(i, 0, "op")
		defer func() { rec.end(root) }()
		id := rec.begin(i, root, "fleet")
		got, meta, lat, err := fl.query(paperSQL)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		if i > 0 && !meta.CacheHit {
			return 0, errors.New("coordinator plan cache missed on a warm statement")
		}
		if !want.EqualAsList(got) {
			return 0, errors.New("result differs from the oracle's list")
		}
		if rec == nil {
			return lat, nil
		}
		rec.count("cache_hit", boolCount(meta.CacheHit))
		st := fl.coord.Stats()
		rec.count("shard_calls", float64(st.ShardCalls-seen.ShardCalls))
		rec.count("retries", float64(st.Retries-seen.Retries))
		seen = st
		id = rec.begin(i, root, "split")
		_, err = core.SplitForShards(prep.Plan, core.SplitPolicy{Colocated: fl.m.Colocated})
		rec.end(id)
		if err != nil {
			return 0, err
		}
		if one == nil {
			if one, err = startFleet(e.ctx, db, spec, 1); err != nil {
				return 0, err
			}
			if _, _, _, err = one.query(paperSQL); err != nil {
				return 0, err
			}
		}
		id = rec.begin(i, root, "fleet_1shard")
		_, _, _, err = one.query(paperSQL)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		id = rec.begin(i, root, "execute")
		_, tr, err := opt.ExecutePlan(prep.Plan, spec)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		countTrace(rec, tr)
		return lat, nil
	}
	in.layers = func(_ *pass, m map[string]float64) error {
		for kind, n := range fl.coord.Stats().Fragments {
			m["fragments_"+kind] = float64(n)
		}
		return nil
	}
	return in, nil
}
