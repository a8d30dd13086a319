package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/exec"
	"tqp/internal/relation"
)

// startServer launches a server and ties its shutdown to the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// setGate installs the test-only execution gate under the server's lock
// (runQuery reads it under the same lock, keeping the race detector happy).
func setGate(srv *Server, gate func()) {
	srv.mu.Lock()
	srv.execGate = gate
	srv.mu.Unlock()
}

// randomStatement draws one statement from a parameterized template pool
// over the paper catalog — the tsql-surface counterpart of the plan fuzzer:
// conventional and sequenced selects, set operations, grouping, coalescing
// and a qualified-attribute join, with randomized literals and directions.
// (The 'Engineering' department matches nothing, so empty results stream
// through the protocol too.)
func randomStatement(rng *rand.Rand) string {
	dept := []string{"Sales", "Advertising", "Engineering"}[rng.Intn(3)]
	prj := []string{"P1", "P2", "P3"}[rng.Intn(3)]
	dir := []string{"ASC", "DESC"}[rng.Intn(2)]
	rel := []string{"EMPLOYEE", "PROJECT"}[rng.Intn(2)]
	switch rng.Intn(10) {
	case 0:
		return "SELECT EmpName FROM " + rel
	case 1:
		return fmt.Sprintf("SELECT DISTINCT EmpName FROM %s ORDER BY EmpName %s", rel, dir)
	case 2:
		return fmt.Sprintf("SELECT EmpName, Dept FROM EMPLOYEE WHERE Dept = '%s' ORDER BY EmpName %s", dept, dir)
	case 3:
		return "VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC"
	case 4:
		return fmt.Sprintf("VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE Dept = '%s'", dept)
	case 5:
		return fmt.Sprintf("SELECT EmpName FROM EMPLOYEE UNION SELECT EmpName FROM PROJECT ORDER BY EmpName %s", dir)
	case 6:
		return fmt.Sprintf("VALIDTIME SELECT DISTINCT COALESCED EmpName FROM %s", rel)
	case 7:
		return fmt.Sprintf("SELECT EmpName, Prj FROM PROJECT WHERE Prj <> '%s' ORDER BY EmpName %s, Prj", prj, dir)
	case 8:
		return "VALIDTIME SELECT Dept, COUNT(*) AS headcount FROM EMPLOYEE GROUP BY Dept"
	default:
		return "VALIDTIME SELECT DISTINCT 1.EmpName FROM EMPLOYEE, PROJECT WHERE 1.EmpName = 2.EmpName"
	}
}

// TestServerEndToEnd32Clients is the acceptance test: 32 concurrent TCP
// clients issue fuzzer-generated statements against one server and every
// result list must be bit-identical (tuples and delivered order) to direct
// in-process execution of the same pipeline. The statement pool is smaller
// than the query stream, so the plan cache must take real hits — guarded
// against vacuity below — and the admission controller sees sustained
// contention. Run under -race in CI, this is the concurrency audit of the
// whole serving path.
func TestServerEndToEnd32Clients(t *testing.T) {
	cat := catalog.Paper()
	srv := startServer(t, Config{
		Catalog:       cat,
		MaxConcurrent: 8,
		Workers:       8, // share of 1 worker per query: the oracle's spec
		CacheSize:     64,
	})

	// The direct-execution oracle: the identical planning and execution
	// pipeline, run sequentially in-process.
	spec := exec.NewSpec(exec.Config{Parallelism: 1})
	opt := core.New(cat, core.WithEngine(spec), core.WithDBMSSeed(1))
	rng := rand.New(rand.NewSource(7))
	want := make(map[string]*relation.Relation)
	var pool []string
	for len(pool) < 24 {
		sql := randomStatement(rng)
		if _, dup := want[sql]; dup {
			continue
		}
		prep, err := opt.Prepare(sql)
		if err != nil {
			t.Fatalf("oracle prepare %q: %v", sql, err)
		}
		r, _, err := opt.ExecutePlan(prep.Plan, spec)
		if err != nil {
			t.Fatalf("oracle execute %q: %v", sql, err)
		}
		want[sql] = r
		pool = append(pool, sql)
	}

	const clients, perClient = 32, 12
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(context.Background(), srv.Addr())
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < perClient; i++ {
				sql := pool[rng.Intn(len(pool))]
				got, meta, err := cl.Query(context.Background(), sql)
				if err != nil {
					errc <- fmt.Errorf("client %d: %q: %w", c, sql, err)
					return
				}
				if !got.EqualAsList(want[sql]) {
					errc <- fmt.Errorf("client %d: %q: result differs from direct execution:\nserver:\n%s\ndirect:\n%s", c, sql, got, want[sql])
					return
				}
				if !got.Order().Equal(want[sql].Order()) {
					errc <- fmt.Errorf("client %d: %q: delivered order %s vs direct %s", c, sql, got.Order(), want[sql].Order())
					return
				}
				if meta.Engine != spec.Name {
					errc <- fmt.Errorf("client %d: ran on engine %q, oracle used %q", c, meta.Engine, spec.Name)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Vacuity guards: the cache must have really hit (24 distinct
	// statements, 384 queries), and admission must have admitted them all.
	cs := srv.CacheStats()
	if cs.Hits == 0 {
		t.Fatalf("vacuous cache: no hits across %d queries: %+v", clients*perClient, cs)
	}
	if cs.Misses == 0 || cs.Entries == 0 {
		t.Fatalf("implausible cache stats: %+v", cs)
	}
	as := srv.AdmissionStats()
	if as.Admitted != int64(clients*perClient) {
		t.Fatalf("admitted %d queries, expected %d: %+v", as.Admitted, clients*perClient, as)
	}
	if as.Active != 0 || as.Queued != 0 {
		t.Fatalf("slots leaked: %+v", as)
	}
}

// TestServerCacheHitSkipsPlanning pins the cache's reason to exist: the
// second execution of a statement reports a cache hit with the same
// planning provenance, and a different session engine takes its own miss
// (plans are keyed per engine spec).
func TestServerCacheHitSkipsPlanning(t *testing.T) {
	srv := startServer(t, Config{Catalog: catalog.Paper(), MaxConcurrent: 2, Workers: 2})
	cl, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const sql = "VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC"
	r1, m1, err := cl.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if m1.CacheHit {
		t.Fatal("first execution cannot hit")
	}
	// Whitespace variant: same normalized statement, must hit.
	r2, m2, err := cl.Query(context.Background(), "  "+sql+" ;")
	if err != nil {
		t.Fatal(err)
	}
	if !m2.CacheHit {
		t.Fatal("second execution must hit the plan cache")
	}
	if m2.Plans != m1.Plans || m2.BestCost != m1.BestCost {
		t.Fatalf("cached provenance differs: %+v vs %+v", m2, m1)
	}
	if !r2.EqualAsList(r1) {
		t.Fatal("cached plan produced a different result")
	}
	// A different engine spec misses: its plans are costed differently.
	if err := cl.Set(context.Background(), "engine", "reference"); err != nil {
		t.Fatal(err)
	}
	r3, m3, err := cl.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if m3.CacheHit {
		t.Fatal("an engine switch must take its own cache miss")
	}
	if !r3.EqualAsList(r1) {
		t.Fatal("engines disagree on the paper query")
	}
	st := srv.CacheStats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("cache stats: %+v", st)
	}
}

// TestServerSessionSettings drives the session surface: SET via the
// protocol op and via in-band SET statements, share capping, invalid
// settings leaving the session untouched.
func TestServerSessionSettings(t *testing.T) {
	srv := startServer(t, Config{
		Catalog:       catalog.Paper(),
		MaxConcurrent: 2,
		Workers:       8,        // per-query share: 4 workers
		MemoryBudget:  64 << 20, // per-query share: 32M
		SpillDir:      t.TempDir(),
	})
	cl, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const sql = "SELECT DISTINCT EmpName FROM EMPLOYEE ORDER BY EmpName"

	engineOf := func() string {
		t.Helper()
		_, meta, err := cl.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		return meta.Engine
	}

	// Default: exec at a 1-worker slice of the pool... no — "exec" keeps
	// parallelism 1 unless asked; the budget share applies always.
	if got := engineOf(); got != "exec-mem32M" {
		t.Fatalf("default engine: %q", got)
	}
	// parallel defaults to the full worker share.
	if err := cl.Set(context.Background(), "engine", "parallel"); err != nil {
		t.Fatal(err)
	}
	if got := engineOf(); got != "exec-par4-mem32M" {
		t.Fatalf("parallel engine: %q", got)
	}
	// Requests are capped at the share, never widened.
	if err := cl.Set(context.Background(), "parallel", "64"); err != nil {
		t.Fatal(err)
	}
	if got := engineOf(); got != "exec-par4-mem32M" {
		t.Fatalf("capped parallel: %q", got)
	}
	// In-band SET statement: narrow the budget.
	if _, _, err := cl.Query(context.Background(), "SET mem = 1M"); err != nil {
		t.Fatal(err)
	}
	if got := engineOf(); got != "exec-par4-mem1M" {
		t.Fatalf("narrowed budget: %q", got)
	}
	// The reference engine refuses parallelism; the session stays intact.
	err = cl.Set(context.Background(), "engine", "reference")
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeSet {
		t.Fatalf("reference+parallel: want a set error, got %v", err)
	}
	if got := engineOf(); got != "exec-par4-mem1M" {
		t.Fatalf("failed set must leave the session untouched: %q", got)
	}
	// Dropping parallelism and the budget share... mem 0 restores the
	// share, so reference still refuses on a budgeted server only if the
	// *requested* budget is nonzero. Clear both, then switch.
	if _, _, err := cl.Query(context.Background(), "SET parallel 0"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Query(context.Background(), "SET mem 0"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(context.Background(), "engine", "reference"); err != nil {
		t.Fatal(err)
	}
	if got := engineOf(); got != "reference" {
		t.Fatalf("reference engine: %q", got)
	}
	// Unknown setting and malformed SET are typed errors.
	if err := cl.Set(context.Background(), "bogus", "1"); err == nil {
		t.Fatal("unknown setting must fail")
	}
	if _, _, err := cl.Query(context.Background(), "SET engine"); err == nil {
		t.Fatal("malformed SET must fail")
	}
}

// TestServerQueryErrors pins the typed error codes clients branch on.
func TestServerQueryErrors(t *testing.T) {
	srv := startServer(t, Config{Catalog: catalog.Paper(), MaxConcurrent: 2, Workers: 2})
	cl, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, c := range []struct{ sql, code string }{
		{"SELEC nonsense", CodeParse},
		{"SELECT X FROM NOPE", CodePlan},
		// Parses fine, fails planning (with a tsql-prefixed message): the
		// classification must track the stage, not the message prefix.
		{"SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE", CodePlan},
	} {
		_, _, err := cl.Query(context.Background(), c.sql)
		var se *ServerError
		if !errors.As(err, &se) || se.Code != c.code {
			t.Errorf("%q: want code %q, got %v", c.sql, c.code, err)
		}
	}
	// The connection survives statement errors.
	if _, _, err := cl.Query(context.Background(), "SELECT EmpName FROM EMPLOYEE"); err != nil {
		t.Fatalf("connection must survive statement errors: %v", err)
	}
	// An unknown op is a protocol error.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, &Request{Op: "bogus"}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindError || resp.Err == nil || resp.Err.Code != CodeProto {
		t.Fatalf("unknown op: want a proto error, got %+v", resp)
	}
	// A well-framed but malformed JSON payload gets a proto error too, and
	// the connection keeps serving (the frame was consumed whole).
	garbage := []byte("this is not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(garbage)))
	if _, err := conn.Write(append(hdr[:], garbage...)); err != nil {
		t.Fatal(err)
	}
	if err := ReadFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindError || resp.Err == nil || resp.Err.Code != CodeProto {
		t.Fatalf("bad payload: want a proto error, got %+v", resp)
	}
	if err := WriteFrame(conn, &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if err := ReadFrame(conn, &resp); err != nil || resp.Kind != KindPong {
		t.Fatalf("connection must survive a bad payload: %v %+v", err, resp)
	}
}

// TestServerStatsAndPing covers the observability ops.
func TestServerStatsAndPing(t *testing.T) {
	cat := catalog.Paper()
	srv := startServer(t, Config{Catalog: cat, MaxConcurrent: 2, Workers: 2})
	cl, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Query(context.Background(), "SELECT EmpName FROM EMPLOYEE"); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Fingerprint != cat.Fingerprint() {
		t.Fatalf("fingerprint %q vs catalog %q", st.Fingerprint, cat.Fingerprint())
	}
	if st.Conns < 1 || st.Admission.Admitted < 1 || st.Cache.Misses < 1 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// TestServerAdmissionRejection pins the saturation behaviour end to end: a
// held slot plus a zero-length queue rejects the next query with the typed
// admission error, and the connection survives to run it after the slot
// frees.
func TestServerAdmissionRejection(t *testing.T) {
	srv := startServer(t, Config{
		Catalog:       catalog.Paper(),
		MaxConcurrent: 1,
		MaxQueue:      -1, // a genuinely empty queue (0 means "default")
		QueueTimeout:  50 * time.Millisecond,
	})
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	setGate(srv, func() { entered <- struct{}{}; <-gate })

	cl1, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	const sql = "SELECT EmpName FROM EMPLOYEE"
	held := make(chan error, 1)
	go func() {
		_, _, err := cl1.Query(context.Background(), sql)
		held <- err
	}()
	<-entered // cl1 now owns the only slot

	_, _, err = cl2.Query(context.Background(), sql)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeAdmission {
		t.Fatalf("saturated server: want an admission error, got %v", err)
	}
	if st := srv.AdmissionStats(); st.Rejected == 0 {
		t.Fatalf("vacuous rejection test: %+v", st)
	}

	close(gate)
	setGate(srv, nil)
	if err := <-held; err != nil {
		t.Fatalf("the held query must complete: %v", err)
	}
	if _, _, err := cl2.Query(context.Background(), sql); err != nil {
		t.Fatalf("rejected client must be able to retry: %v", err)
	}
}

// TestServerGracefulShutdown pins Close's contract: in-flight queries
// drain to successful completion, queries arriving during the drain get
// the typed shutdown error, Close is idempotent, and new connections are
// refused afterwards.
func TestServerGracefulShutdown(t *testing.T) {
	cat := catalog.Paper()
	srv := startServer(t, Config{
		Catalog:       cat,
		MaxConcurrent: 1,
		MaxQueue:      -1,
		DrainTimeout:  10 * time.Second,
	})
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	setGate(srv, func() { entered <- struct{}{}; <-gate })

	cl1, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := Dial(context.Background(), srv.Addr()) // dialed before the listener closes
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	// Dial returns at TCP connect, while the connection may still wait in
	// the listen backlog; a round trip proves the server accepted it
	// before Close shuts the listener.
	if err := cl2.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}

	const sql = "SELECT DISTINCT EmpName FROM EMPLOYEE ORDER BY EmpName"
	type outcome struct {
		rel *relation.Relation
		err error
	}
	held := make(chan outcome, 1)
	go func() {
		r, _, err := cl1.Query(context.Background(), sql)
		held <- outcome{r, err}
	}()
	<-entered

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// While the drain waits on cl1, a query on the pre-existing cl2
	// connection is rejected with the shutdown code. (Poll: Close flips
	// the flag concurrently with our request.)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, err := cl2.Query(context.Background(), sql)
		var se *ServerError
		if errors.As(err, &se) && se.Code == CodeShutdown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query during drain: want a shutdown error, got %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(gate) // let the in-flight query finish
	got := <-held
	if got.err != nil {
		t.Fatalf("drained query must complete successfully: %v", got.err)
	}
	if got.rel.Len() != 2 { // Anna, John
		t.Fatalf("drained query result: %s", got.rel)
	}
	if err := <-closed; err != nil {
		t.Fatalf("clean drain must close without error: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
	// The listener is gone: new connections are refused (or reset
	// immediately on first use).
	if conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		conn.Close()
		if cl, err := Dial(context.Background(), srv.Addr()); err == nil {
			if err := cl.Ping(context.Background()); err == nil {
				t.Fatal("a closed server must not answer pings")
			}
			cl.Close()
		}
	}
}

// TestServerDrainDeadline pins the other half of the Close contract: a
// straggler past DrainTimeout surfaces as a Close error, and the second
// Close reports the same outcome.
func TestServerDrainDeadline(t *testing.T) {
	srv := startServer(t, Config{
		Catalog:       catalog.Paper(),
		MaxConcurrent: 1,
		MaxQueue:      -1,
		DrainTimeout:  30 * time.Millisecond,
	})
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	setGate(srv, func() { entered <- struct{}{}; <-gate })

	cl, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan struct{})
	go func() {
		cl.Query(context.Background(), "SELECT EmpName FROM EMPLOYEE")
		close(done)
	}()
	<-entered

	err1 := srv.Close()
	if err1 == nil {
		t.Fatal("Close must report the exceeded drain deadline")
	}
	if err2 := srv.Close(); !errors.Is(err2, err1) {
		t.Fatalf("idempotent Close must report the first outcome: %v vs %v", err2, err1)
	}
	close(gate)
	<-done // the straggler unwinds; its engine cleanup still runs
}

// TestServerSpillLifecycle runs budgeted queries that demonstrably spill
// and checks the spill directory is empty once the server closes — the PR 4
// lifecycle guarantee holding across the serving layer.
func TestServerSpillLifecycle(t *testing.T) {
	spill := t.TempDir()
	cat := datagen.EmployeeDB(datagen.EmployeeSpec{
		Employees: 800, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 42,
	})
	srv := startServer(t, Config{
		Catalog:       cat,
		MaxConcurrent: 2,
		Workers:       2,
		MemoryBudget:  64 << 10, // 32K per-query share
		SpillDir:      spill,
	})
	const sql = "VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC"

	// Vacuity guard: under the per-query share this statement's plan
	// really spills (checked on a private engine over the same plan).
	spec := exec.NewSpec(exec.Config{MemoryBudget: 32 << 10, SpillDir: spill})
	opt := core.New(cat, core.WithEngine(spec), core.WithDBMSSeed(1))
	prep, err := opt.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.NewWith(cat, exec.Config{MemoryBudget: 32 << 10, SpillDir: spill})
	want, err := eng.Eval(prep.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().SpilledOps == 0 {
		t.Fatal("vacuous spill test: the statement does not spill at this budget")
	}

	cl, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		got, _, err := cl.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsList(want) {
			t.Fatal("budgeted server result differs from direct budgeted execution")
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var leftovers []string
	err = filepath.WalkDir(spill, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path != spill {
			leftovers = append(leftovers, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("spill files left behind after Close: %v", leftovers)
	}
}

// TestDeadlineWriterUnsticksStalledPeer pins the write-deadline mechanism:
// a peer that never reads blocks the writer until the armed deadline
// trips, instead of forever.
func TestDeadlineWriterUnsticksStalledPeer(t *testing.T) {
	client, srvSide := net.Pipe()
	defer client.Close()
	defer srvSide.Close()
	w := deadlineWriter{conn: srvSide, timeout: 30 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, err := w.Write(make([]byte, 1<<16)) // nobody reads client
		done <- err
	}()
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("want a timeout error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write to a stalled peer never returned")
	}
}

// TestServerQueueHandover exercises the queued-admission path end to end:
// with a queue, the second query waits for the slot instead of being
// rejected, and both complete.
func TestServerQueueHandover(t *testing.T) {
	srv := startServer(t, Config{
		Catalog:       catalog.Paper(),
		MaxConcurrent: 1,
		MaxQueue:      4,
		QueueTimeout:  5 * time.Second,
	})
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	setGate(srv, func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	})

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			cl, err := Dial(context.Background(), srv.Addr())
			if err != nil {
				results <- err
				return
			}
			defer cl.Close()
			_, _, err = cl.Query(context.Background(), "SELECT EmpName FROM EMPLOYEE")
			results <- err
		}()
	}
	<-entered // the first holds the slot; the second queues
	for srv.AdmissionStats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate) // both proceed: the slot hands over FIFO
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued query %d: %v", i, err)
		}
	}
	if st := srv.AdmissionStats(); st.Admitted != 2 || st.PeakQueued != 1 {
		t.Fatalf("admission stats: %+v", st)
	}
}

// TestClientContextCancelledAsCallReturns issues sequential queries on one
// connection, each under its own context cancelled the moment the call
// returns (the WithTimeout + defer cancel() idiom). The call's deadline
// watcher must never outlive the call and re-arm the connection's deadline:
// every query succeeds and the connection stays usable.
func TestClientContextCancelledAsCallReturns(t *testing.T) {
	srv := startServer(t, Config{Catalog: catalog.Paper(), MaxConcurrent: 2, Workers: 2})
	cl, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	query := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_, _, err := cl.Query(ctx, "SELECT EmpName FROM EMPLOYEE")
		return err
	}
	for i := 0; i < 2000; i++ {
		if err := query(); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}
