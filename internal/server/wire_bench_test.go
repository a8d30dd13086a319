package server

import (
	"context"
	"testing"

	"tqp/internal/datagen"
)

// BenchmarkWireScan times the wire layer: a loopback Server over the
// statement benchmark's wire.scan database (2,000 employees, 6,000
// EMPLOYEE rows) answers SELECT * FROM EMPLOYEE to one Client, its plan
// cache warm. Executing the scan is cheap; the server's frame encode, the
// socket and the client's block decode are the operation.
func BenchmarkWireScan(b *testing.B) {
	const sql = "SELECT * FROM EMPLOYEE"
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 2000, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 1})
	srv, err := Start(Config{Catalog: db, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	c, err := Dial(ctx, srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	warm, _, err := c.Query(ctx, sql)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := c.Query(ctx, sql)
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != warm.Len() {
			b.Fatalf("answered %d rows, then %d", warm.Len(), got.Len())
		}
	}
}
