package datagen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"tqp/internal/datagen"
	"tqp/internal/relation"
)

// digest hashes a relation's rows in list order, each cell with its kind.
func digest(r *relation.Relation) string {
	h := sha256.New()
	for _, t := range r.Tuples() {
		for _, v := range t {
			fmt.Fprintf(h, "%s:%s,", v.Kind(), v)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests pins the generators' output row for row: the
// benchmark's inputs are built by these functions, so any change to how a
// generator assembles its relation must leave every row, its kinds and its
// position unchanged.
func TestGeneratorDigests(t *testing.T) {
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 50, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 7})
	emp, err := db.Resolve("EMPLOYEE")
	if err != nil {
		t.Fatal(err)
	}
	prj, err := db.Resolve("PROJECT")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rel  *relation.Relation
		rows int
		want string
	}{
		{"EMPLOYEE", emp, 150, "7bc63994792d784b309f4de89cea758de9cb138b791c6557361bc24a1965aec2"},
		{"PROJECT", prj, 200, "dcf596d99110c9b85c171e4b4c27d0dd1cb6858695b781d9c6235d3bc1e3dae1"},
		{"Temporal", datagen.Temporal(datagen.TemporalSpec{Rows: 300, Values: 9, DupFrac: 0.2, AdjFrac: 0.3, Seed: 5}), 300, "4ffc4ce2c434623d228bfda133e9a980035ad2e0f3a739056482274bc03c84db"},
		{"Snapshot", datagen.Snapshot(datagen.SnapshotSpec{Rows: 200, Values: 7, DupFrac: 0.25, Seed: 5}), 200, "f0f941c78d161618f0e17716496763c909392bf3819420f9d2c84c67d7168ecc"},
	} {
		if c.rel.Len() != c.rows {
			t.Errorf("%s: %d rows, want %d", c.name, c.rel.Len(), c.rows)
		}
		if got := digest(c.rel); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
