package coord_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"tqp/internal/coord"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/exec"
	"tqp/internal/server"
	"tqp/internal/shard"
)

// TestPaperStatementBelowTheGather pins the co-partitioned fleet: under the
// Auto derivation EMPLOYEE and PROJECT are hashed on EmpName alone, so the
// paper statement's whole \ᵀ region runs on the shards as one grouped
// fragment — no chain or sorted fragment is left to ship base rows — and
// the coordinated list is still the single node's, at 2 and 4 shards over
// 20 data seeds.
func TestPaperStatementBelowTheGather(t *testing.T) {
	spec := exec.NewSpec(exec.Config{})
	for seed := int64(1); seed <= 20; seed++ {
		db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 200, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: seed})
		for _, n := range []int{2, 4} {
			t.Run(fmt.Sprintf("seed%d/%d", seed, n), func(t *testing.T) {
				oracle := core.New(db, core.WithEngine(spec), core.WithDBMSSeed(1),
					core.WithCostParams(core.ShardedCostParams(spec, n)))
				prep, err := oracle.Prepare(paperSQL)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := oracle.ExecutePlan(prep.Plan, spec)
				if err != nil {
					t.Fatal(err)
				}
				c, err := coord.New(context.Background(), coord.Config{
					Catalog: db, Addrs: startShards(t, db, n, shard.Auto), Spec: spec, Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				got, _, err := c.Query(context.Background(), paperSQL)
				if err != nil {
					t.Fatal(err)
				}
				if want.Len() == 0 || !want.EqualAsList(got) {
					t.Fatalf("sharded result (%d rows) diverges from the single node's (%d rows)", got.Len(), want.Len())
				}
				if kinds := c.Stats().Fragments; !reflect.DeepEqual(kinds, map[string]int{"grouped": 1}) {
					t.Fatalf("fragment kinds %v, want exactly one grouped fragment", kinds)
				}
			})
		}
	}
}

// BenchmarkFleetPaper times the gather layer: a coordinator over 2
// loopback shard servers holding the statement benchmark's fleet.paper
// database (2,000 employees, 14,000 rows) answers the paper statement, its
// plan cache warm. rows_shipped/op is what the shards send the coordinator
// per statement.
func BenchmarkFleetPaper(b *testing.B) {
	const shards = 2
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 2000, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 1})
	m, err := shard.NewMap(db, shards)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]string, shards)
	for i := range addrs {
		sub, pos, err := m.Partition(i)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := server.Start(server.Config{Catalog: sub, ShardPositions: pos, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	ctx := context.Background()
	c, err := coord.New(ctx, coord.Config{Catalog: db, Addrs: addrs, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	warm, answers, err := c.QueryAnswers(ctx, paperSQL)
	if err != nil {
		b.Fatal(err)
	}
	shipped := 0
	for _, a := range answers {
		shipped += a.Len()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := c.Query(ctx, paperSQL)
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != warm.Len() {
			b.Fatalf("answered %d rows, then %d", warm.Len(), got.Len())
		}
	}
	b.ReportMetric(float64(shipped), "rows_shipped/op")
}
