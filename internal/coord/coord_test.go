package coord_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tqp/internal/catalog"
	"tqp/internal/coord"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/relation"
	"tqp/internal/server"
	"tqp/internal/shard"
)

const paperSQL = `VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE
	EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC`

// queries covers every fragment shape: bare scans, filtered chains, pushed
// sorts, grouped push-downs, joins and set operations in the remainder.
var queries = []string{
	"SELECT EmpName, Dept FROM EMPLOYEE",
	"VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Ship'",
	paperSQL,
	"VALIDTIME SELECT Dept, COUNT(*) AS headcount FROM EMPLOYEE GROUP BY Dept",
	"VALIDTIME SELECT DISTINCT 1.EmpName FROM EMPLOYEE, PROJECT WHERE 1.EmpName = 2.EmpName",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE ORDER BY EmpName ASC",
}

// startShards boots n in-process shard servers over cat's n-way
// partitioning and returns their addresses. Cleanup closes them.
func startShards(t *testing.T, cat *catalog.Catalog, n int, mode shard.Mode) []string {
	t.Helper()
	m, err := shard.NewMapMode(cat, n, mode)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		sub, pos, err := m.Partition(i)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.Start(server.Config{
			Addr: "127.0.0.1:0", Catalog: sub, ShardPositions: pos, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// TestCoordinatorDifferential is the reference-vs-sharded leg over the real
// wire protocol: for both databases, both forced partitioning strategies
// and 1/2/4 shards, every query's coordinated result must be bit-identical
// to a single node's. The fragment counters guard against a vacuously
// green run.
func TestCoordinatorDifferential(t *testing.T) {
	paper := catalog.Paper()
	synth := datagen.EmployeeDB(datagen.EmployeeSpec{
		Employees: 30, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 42,
	})
	for _, db := range []struct {
		name string
		cat  *catalog.Catalog
	}{{"paper", paper}, {"synth", synth}} {
		for _, mode := range []shard.Mode{shard.ForceHash, shard.ForceRange} {
			for _, n := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%v/%d", db.name, mode, n), func(t *testing.T) {
					// The oracle plans exactly the way the coordinator does
					// — Prepare with the scale-out cost model — so both
					// execute the same physical plan; the bit-identity
					// contract is per plan.
					oracle := core.New(db.cat, core.WithEngine(exec.NewSpec(exec.Config{})), core.WithDBMSSeed(1),
						core.WithCostParams(core.ShardedCostParams(exec.NewSpec(exec.Config{}), n)))
					single := func(sql string) *relation.Relation {
						prep, err := oracle.Prepare(sql)
						if err != nil {
							t.Fatalf("%s: prepare: %v", sql, err)
						}
						want, _, err := oracle.ExecutePlan(prep.Plan, exec.NewSpec(exec.Config{}))
						if err != nil {
							t.Fatalf("%s: single-node: %v", sql, err)
						}
						return want
					}
					addrs := startShards(t, db.cat, n, mode)
					c, err := coord.New(context.Background(), coord.Config{
						Catalog: db.cat, Addrs: addrs, Mode: mode, Spec: exec.NewSpec(exec.Config{}), Seed: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					for _, sql := range queries {
						want := single(sql)
						got, meta, err := c.Query(context.Background(), sql)
						if err != nil {
							t.Fatalf("%s: coordinated: %v", sql, err)
						}
						if !want.EqualAsList(got) {
							t.Fatalf("%s: sharded result diverges\nwant:\n%s\ngot:\n%s", sql, want, got)
						}
						if meta.Shards != n || meta.Fragments == 0 {
							t.Fatalf("%s: meta %+v", sql, meta)
						}
					}
					// Cached replay: bit-identical again, with a cache hit.
					got, meta, err := c.Query(context.Background(), paperSQL)
					if err != nil {
						t.Fatal(err)
					}
					if want := single(paperSQL); !want.EqualAsList(got) {
						t.Fatal("cached replay diverges")
					}
					if !meta.CacheHit {
						t.Fatal("replay must hit the plan cache")
					}
					st := c.Stats()
					if st.Fragments["chain"] == 0 || st.Fragments["sorted"]+st.Fragments["grouped"] == 0 {
						t.Fatalf("vacuous differential: fragment kinds %v", st.Fragments)
					}
					// A single range shard has no interior cuts, so every
					// group is trivially colocated and the grouped push
					// must fire; more shards may legitimately split groups.
					if mode == shard.ForceRange && n == 1 && st.Fragments["grouped"] == 0 {
						t.Fatalf("range partitioning colocates whole value groups; expected a grouped push, got %v", st.Fragments)
					}
					if st.ShardCalls == 0 || st.Queries != len(queries)+1 || st.CacheHits != 1 {
						t.Fatalf("stats %+v", st)
					}
				})
			}
		}
	}
}

// TestCoordinatorAutoMode smoke-checks the default derivation end to end.
func TestCoordinatorAutoMode(t *testing.T) {
	cat := catalog.Paper()
	addrs := startShards(t, cat, 2, shard.Auto)
	c, err := coord.New(context.Background(), coord.Config{Catalog: cat, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oracle := core.New(cat, core.WithEngine(exec.NewSpec(exec.Config{})), core.WithDBMSSeed(1))
	want, _, _, err := oracle.Run(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Query(context.Background(), paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualAsList(got) {
		t.Fatal("auto-mode sharded result diverges")
	}
	if _, _, err := c.Query(context.Background(), "SET engine exec"); err == nil {
		t.Fatal("SET must be rejected by the coordinator")
	}
}

// TestCoordinatorCacheIsLRU pins the coordinator's plan cache to the
// server's eviction policy: at capacity the least recently used statement
// falls out, so a statement re-issued between two new ones stays cached.
func TestCoordinatorCacheIsLRU(t *testing.T) {
	cat := catalog.Paper()
	addrs := startShards(t, cat, 2, shard.Auto)
	c, err := coord.New(context.Background(), coord.Config{Catalog: cat, Addrs: addrs, CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, step := range []struct {
		sql string
		hit bool
	}{
		{queries[0], false},
		{queries[1], false},
		{queries[0], true},
		{queries[3], false}, // at capacity: evicts queries[1], not queries[0]
		{queries[0], true},
		{queries[1], false},
	} {
		_, meta, err := c.Query(context.Background(), step.sql)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if meta.CacheHit != step.hit {
			t.Fatalf("step %d (%s): cache hit = %v, want %v", i, step.sql, meta.CacheHit, step.hit)
		}
	}
}

// TestCoordinatorShardFailure pins the partial-failure contract: a dead
// shard fails the whole query with a *ShardError naming the shard, the
// other shards stay usable, and tearing the coordinator down leaks no
// goroutines.
func TestCoordinatorShardFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	cat := catalog.Paper()
	m, err := shard.NewMapMode(cat, 2, shard.ForceHash)
	if err != nil {
		t.Fatal(err)
	}
	srvs := make([]*server.Server, 2)
	addrs := make([]string, 2)
	for i := 0; i < 2; i++ {
		sub, pos, err := m.Partition(i)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i], err = server.Start(server.Config{
			Addr: "127.0.0.1:0", Catalog: sub, ShardPositions: pos, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = srvs[i].Addr()
	}
	c, err := coord.New(context.Background(), coord.Config{
		Catalog: cat, Addrs: addrs, Mode: shard.ForceHash,
		DialTimeout: 2 * time.Second, QueryTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(context.Background(), paperSQL); err != nil {
		t.Fatalf("both shards up: %v", err)
	}

	srvs[1].Close() // kill shard 1; the redial retry must fail too
	_, _, err = c.Query(context.Background(), paperSQL)
	var se *coord.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("want *coord.ShardError, got %v", err)
	}
	if se.Index != 1 || se.Addr != addrs[1] {
		t.Fatalf("error names shard %d (%s), want 1 (%s)", se.Index, se.Addr, addrs[1])
	}

	c.Close()
	srvs[0].Close()
	// Every server and coordinator goroutine must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutine leak: %d before, %d after shutdown", before, n)
	}
}

// keylessProxy fronts a shard server and rewrites every schema frame it
// answers to say the rows carry no sequence keys — a shard that lost its
// fragments' provenance. It returns the proxy's address; Cleanup stops it.
func keylessProxy(t *testing.T, shardAddr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			front, err := ln.Accept()
			if err != nil {
				return
			}
			back, err := net.Dial("tcp", shardAddr)
			if err != nil {
				front.Close()
				return
			}
			go func() {
				io.Copy(back, front)
				back.Close()
			}()
			go func() {
				defer front.Close()
				for {
					var resp server.Response
					if server.ReadFrame(back, &resp) != nil {
						return
					}
					resp.Keyed = false
					if server.WriteFrame(front, &resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestCoordinatorRefusesKeylessShard pins the gather's provenance check:
// a chain or sorted fragment merges by sequence key, so a shard answering
// one without keys fails the query with a *ShardError instead of merging
// in some arbitrary order.
func TestCoordinatorRefusesKeylessShard(t *testing.T) {
	cat := catalog.Paper()
	addrs := startShards(t, cat, 2, shard.Auto)
	addrs[1] = keylessProxy(t, addrs[1])
	for _, tc := range []struct{ kind, sql string }{
		{"chain", "SELECT EmpName, Dept FROM EMPLOYEE"},
		{"sorted", "SELECT EmpName FROM EMPLOYEE ORDER BY EmpName"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			c, err := coord.New(context.Background(), coord.Config{Catalog: cat, Addrs: addrs})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, _, err = c.Query(context.Background(), tc.sql)
			if got := c.Stats().Fragments; got[tc.kind] != 1 || len(got) != 1 {
				t.Fatalf("fragments %v, want one %s fragment", got, tc.kind)
			}
			var se *coord.ShardError
			if !errors.As(err, &se) || se.Index != 1 || !strings.Contains(err.Error(), "no sequence keys") {
				t.Fatalf("want a *coord.ShardError for shard 1 about missing keys, got %v", err)
			}
		})
	}
}

// TestCoordinatorDialFailure pins New's contract: an unreachable shard
// fails construction with a *ShardError and closes the connections already
// made.
func TestCoordinatorDialFailure(t *testing.T) {
	cat := catalog.Paper()
	addrs := startShards(t, cat, 1, shard.Auto)
	_, err := coord.New(context.Background(), coord.Config{
		Catalog: cat, Addrs: []string{addrs[0], "127.0.0.1:1"},
		DialTimeout: time.Second,
	})
	var se *coord.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("want *coord.ShardError, got %v", err)
	}
	if se.Index != 1 {
		t.Fatalf("error names shard %d, want 1", se.Index)
	}
}

// gatherQueries push every fragment kind under hash partitioning: bare and
// filtered chains, pushed sorts, and grouped push-downs (temporal
// coalescing grouped on every value attribute, the hashed ones).
var gatherQueries = []string{
	"SELECT EmpName, Dept FROM EMPLOYEE",
	"VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Ship'",
	paperSQL,
	"VALIDTIME SELECT DISTINCT COALESCED EmpName, Dept FROM EMPLOYEE ORDER BY EmpName ASC, Dept ASC",
	"VALIDTIME SELECT COALESCED EmpName, Dept FROM EMPLOYEE ORDER BY Dept ASC, EmpName ASC",
	"SELECT EmpName, Dept FROM EMPLOYEE ORDER BY EmpName ASC",
	"SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Ship' ORDER BY EmpName DESC",
}

// TestCoordinatorGatherConvertsNothing pins the columnar gather: shard
// answers arrive as columns, the k-way merge reads and writes columns, and
// the merged placeholders are columnar-primary. So at 1, 2 and 4 shards,
// over chain, sorted and grouped fragments, the remainder's engines — the
// stratum's and the DBMS site's alike — report 0 scan conversions, and no
// shard answer has derived a tuple by the time the statement returns; the
// result is still a single node's list.
func TestCoordinatorGatherConvertsNothing(t *testing.T) {
	db := datagen.EmployeeDB(datagen.EmployeeSpec{
		Employees: 40, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 7,
	})
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			spec := exec.NewSpec(exec.Config{})
			var engines []*exec.Engine
			inner := spec.New
			spec.New = func(src eval.Source) eval.Engine {
				e := inner(src).(*exec.Engine)
				engines = append(engines, e)
				return e
			}
			c, err := coord.New(context.Background(), coord.Config{
				Catalog: db, Addrs: startShards(t, db, n, shard.ForceHash), Mode: shard.ForceHash, Spec: spec, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			plain := exec.NewSpec(exec.Config{})
			oracle := core.New(db, core.WithEngine(plain), core.WithDBMSSeed(1),
				core.WithCostParams(core.ShardedCostParams(plain, n)))
			for _, sql := range gatherQueries {
				engines = engines[:0]
				got, answers, err := c.QueryAnswers(context.Background(), sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				conversions := 0
				for _, e := range engines {
					conversions += e.Stats().ScanConversions
				}
				if len(engines) == 0 || conversions != 0 {
					t.Errorf("%s: the remainder converted %d scans over %d engines, want 0", sql, conversions, len(engines))
				}
				for i, a := range answers {
					if !reflect.ValueOf(a).Elem().FieldByName("tuples").IsNil() {
						t.Errorf("%s: shard answer %d derived its tuples", sql, i)
					}
				}
				prep, err := oracle.Prepare(sql)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := oracle.ExecutePlan(prep.Plan, plain)
				if err != nil {
					t.Fatal(err)
				}
				if !want.EqualAsList(got) {
					t.Fatalf("%s: sharded result diverges\nwant:\n%s\ngot:\n%s", sql, want, got)
				}
			}
			if st := c.Stats(); st.Fragments["chain"] == 0 || st.Fragments["sorted"] == 0 || st.Fragments["grouped"] == 0 {
				t.Fatalf("fragment kinds %v: every kind must be gathered", st.Fragments)
			}
		})
	}
}
