package shard_test

import (
	"slices"
	"sort"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/datagen"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/shard"
)

// randomDB is a catalog whose rows are stored in generation order — value
// groups scattered. TA and TB share Name and Grp, so the shared key is Grp.
func randomDB(t *testing.T, rows int) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	c.MustAdd("TA", datagen.Temporal(datagen.TemporalSpec{Rows: rows, Values: 5, DupFrac: 0.2, AdjFrac: 0.2, Seed: 7}), algebra.BaseInfo{})
	c.MustAdd("TB", datagen.Temporal(datagen.TemporalSpec{Rows: rows / 2, Values: 3, DupFrac: 0.1, Seed: 8}), algebra.BaseInfo{})
	return c
}

// groupedDB is a one-relation catalog whose rows are stored grouped on the
// value attributes (sorted by Name, Grp). Nothing is shared, so TG is hashed
// on all its value attributes.
func groupedDB(t *testing.T, rows int) *catalog.Catalog {
	t.Helper()
	base := datagen.Temporal(datagen.TemporalSpec{Rows: rows, Values: 6, DupFrac: 0.2, AdjFrac: 0.2, Seed: 9})
	tuples := base.Tuples()
	spec := relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	sort.SliceStable(tuples, func(i, j int) bool {
		return relation.CompareOn(base.Schema(), spec, tuples[i], tuples[j]) < 0
	})
	c := catalog.New()
	c.MustAdd("TG", relation.FromTuplesTrusted(base.Schema(), tuples), algebra.BaseInfo{})
	return c
}

// TestMapDeterminism pins the no-map-shipping contract: two independent
// derivations from equal catalogs agree on every row's shard.
func TestMapDeterminism(t *testing.T) {
	a := mustMap(t, randomDB(t, 60), 3)
	b := mustMap(t, randomDB(t, 60), 3)
	for _, rel := range []string{"TA", "TB"} {
		for i := 0; i < 3; i++ {
			pa, err := a.Positions(rel, i)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := b.Positions(rel, i)
			if err != nil {
				t.Fatal(err)
			}
			if len(pa) != len(pb) {
				t.Fatalf("%s shard %d: %d vs %d positions", rel, i, len(pa), len(pb))
			}
			for j := range pa {
				if pa[j] != pb[j] {
					t.Fatalf("%s shard %d: positions diverge at %d", rel, i, j)
				}
			}
		}
	}
}

// TestPartitionRoundTrip pins that the slices are a disjoint, order-
// preserving cover of every relation, with positions parallel to rows.
func TestPartitionRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
	}{
		{"hash", randomDB(t, 60)},
		{"grouped", groupedDB(t, 60)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			m := mustMap(t, tc.cat, n)
			for _, rel := range tc.cat.Names() {
				whole, err := tc.cat.Resolve(rel)
				if err != nil {
					t.Fatal(err)
				}
				seen := make([]bool, whole.Len())
				for i := 0; i < n; i++ {
					sub, positions, err := m.Partition(i)
					if err != nil {
						t.Fatal(err)
					}
					slice, err := sub.Resolve(rel)
					if err != nil {
						t.Fatal(err)
					}
					pos := positions[rel]
					if slice.Len() != len(pos) {
						t.Fatalf("shard %d %s: %d rows but %d positions", i, rel, slice.Len(), len(pos))
					}
					for j, g := range pos {
						if j > 0 && pos[j-1] >= g {
							t.Fatalf("shard %d %s: positions not ascending (stored order broken)", i, rel)
						}
						if seen[g] {
							t.Fatalf("shard %d %s: row %d assigned twice", i, rel, g)
						}
						seen[g] = true
						if !slice.At(j).Equal(whole.At(g)) {
							t.Fatalf("shard %d %s: row %d is not global row %d", i, rel, j, g)
						}
					}
				}
				for g, ok := range seen {
					if !ok {
						t.Fatalf("%s: row %d assigned to no shard", rel, g)
					}
				}
			}
		})
	}
}

// TestColocatedHash pins hash colocation: value-equivalent rows land on one
// shard, groupings that include the hashed attributes are colocated, and
// ones that drop a hashed attribute are not — except at one shard, which
// colocates every grouping.
func TestColocatedHash(t *testing.T) {
	cat := randomDB(t, 80)
	const n = 3
	m := mustMap(t, cat, n)
	rel, _ := cat.Resolve("TA")
	vidx := physical.ValueIdx(rel.Schema())
	home := make(map[uint64]int)
	for i := 0; i < n; i++ {
		pos, err := m.Positions("TA", i)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range pos {
			h := rel.At(g).HashOn(vidx)
			if prev, ok := home[h]; ok && prev != i {
				t.Fatalf("value group split across shards %d and %d", prev, i)
			}
			home[h] = i
		}
	}
	if !m.Colocated("TA", []string{"Name", "Grp"}) {
		t.Fatal("the full value-attribute set must be colocated under hash")
	}
	if !m.Colocated("TA", []string{"Grp", "Name", schema_T1(t)}) {
		t.Fatal("a superset of the hashed attributes must be colocated")
	}
	if m.Colocated("TA", []string{"Name"}) {
		t.Fatal("dropping a hashed attribute must not claim colocation")
	}
	if m.Colocated("NOPE", []string{"Name"}) {
		t.Fatal("unknown relation must not claim colocation")
	}
	if one := mustMap(t, cat, 1); !one.Colocated("TA", []string{"Name"}) || !one.Colocated("TB", nil) {
		t.Fatal("one shard must colocate every grouping")
	}
}

// schema_T1 returns the temporal start attribute's name.
func schema_T1(t *testing.T) string {
	t.Helper()
	s := datagen.TemporalSchema()
	t1, _ := s.TimeIndices()
	return s.At(t1).Name
}

// TestOneRule pins the one partitioning: row t of a relation goes to shard
// HashOn(key) % n, the key being the shared key when the relation holds it
// and all its value attributes otherwise — on randomDB (shared key Grp)
// and groupedDB (no shared key), whose grouped storage plays no part.
func TestOneRule(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
		key  func(s *schema.Schema) []int
	}{
		{"shared key", randomDB(t, 60), func(s *schema.Schema) []int { return []int{s.Index("Grp")} }},
		{"no shared key", groupedDB(t, 60), physical.ValueIdx},
	} {
		m := mustMap(t, tc.cat, n)
		for _, rel := range tc.cat.Names() {
			whole, _ := tc.cat.Resolve(rel)
			key := tc.key(whole.Schema())
			var got []int
			for i := 0; i < n; i++ {
				pos, err := m.Positions(rel, i)
				if err != nil {
					t.Fatal(err)
				}
				var want []int
				for g := 0; g < whole.Len(); g++ {
					if int(whole.At(g).HashOn(key)%n) == i {
						want = append(want, g)
					}
				}
				if !slices.Equal(pos, want) {
					t.Fatalf("%s: %s shard %d holds %v, want %v", tc.name, rel, i, pos, want)
				}
				got = append(got, len(pos))
			}
			if slices.Contains(got, whole.Len()) {
				t.Fatalf("%s: %s is not spread (%v): the rule is vacuous here", tc.name, rel, got)
			}
		}
	}
}

// TestNewMapModeRejectsOtherModes pins the NewMapMode shim: Auto is
// NewMap, any other mode is an error.
func TestNewMapModeRejectsOtherModes(t *testing.T) {
	cat := randomDB(t, 20)
	m, err := shard.NewMapMode(cat, 2, shard.Auto)
	if err != nil {
		t.Fatal(err)
	}
	want := mustMap(t, cat, 2)
	for i := 0; i < 2; i++ {
		a, _ := m.Positions("TA", i)
		b, _ := want.Positions("TA", i)
		if !slices.Equal(a, b) {
			t.Fatalf("shard %d: NewMapMode(Auto) holds %v, NewMap %v", i, a, b)
		}
	}
	for _, mode := range []shard.Mode{1, 2, 255} {
		if _, err := shard.NewMapMode(cat, 2, mode); err == nil {
			t.Fatalf("mode %d must be rejected", mode)
		}
	}
}

// TestBadArgs pins the error paths.
func TestBadArgs(t *testing.T) {
	cat := randomDB(t, 10)
	if _, err := shard.NewMap(cat, 0); err == nil {
		t.Fatal("0 shards must be rejected")
	}
	m, err := shard.NewMap(cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Positions("TA", 2); err == nil {
		t.Fatal("out-of-range shard index must be rejected")
	}
	if _, err := m.Positions("NOPE", 0); err == nil {
		t.Fatal("unknown relation must be rejected")
	}
}

// TestAutoCoPartitionsSharedKey pins the shared key: EMPLOYEE and PROJECT
// both hold EmpName, so both are hashed on it alone — every EmpName lives
// on one shard in both relations — and CoPartitioned holds for groupings
// that pair EmpName with EmpName, not for other pairings. Between
// relations that share two attributes the smaller name wins.
func TestAutoCoPartitionsSharedKey(t *testing.T) {
	cat := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 60, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 3})
	const n = 3
	m := mustMap(t, cat, n)
	home := make(map[string]int)
	for _, rel := range []string{"EMPLOYEE", "PROJECT"} {
		whole, err := cat.Resolve(rel)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			pos, err := m.Positions(rel, i)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range pos {
				name := whole.At(g)[0].AsString()
				if prev, ok := home[name]; ok && prev != i {
					t.Fatalf("%s: EmpName %s on shards %d and %d", rel, name, prev, i)
				}
				home[name] = i
			}
		}
		if !m.Colocated(rel, []string{"EmpName"}) {
			t.Fatalf("%s: EmpName groups must be colocated", rel)
		}
	}
	both := []string{"EMPLOYEE", "PROJECT"}
	for _, tc := range []struct {
		name  string
		m     *shard.Map
		attrs [][]string
		want  bool
	}{
		{"shared key", m, [][]string{{"EmpName"}, {"EmpName"}}, true},
		{"shared key among others", m, [][]string{{"EmpName", "Dept"}, {"EmpName", "Prj"}}, true},
		{"misaligned", m, [][]string{{"Dept", "EmpName"}, {"EmpName", "Prj"}}, false},
		{"key dropped", m, [][]string{{"EmpName"}, {"Prj"}}, false},
		{"one shard", mustMap(t, cat, 1), [][]string{{"EmpName"}, {"EmpName"}}, true},
	} {
		if got := tc.m.CoPartitioned(both, tc.attrs); got != tc.want {
			t.Errorf("%s: CoPartitioned = %v, want %v", tc.name, got, tc.want)
		}
	}
	if m.CoPartitioned([]string{"EMPLOYEE", "NOPE"}, [][]string{{"EmpName"}, {"EmpName"}}) {
		t.Error("an unknown relation must not claim co-partitioning")
	}
	// TA and TB share Name and Grp: the tie goes to Grp.
	r := mustMap(t, randomDB(t, 60), n)
	if !r.CoPartitioned([]string{"TA", "TB"}, [][]string{{"Grp"}, {"Grp"}}) || r.CoPartitioned([]string{"TA", "TB"}, [][]string{{"Name"}, {"Name"}}) {
		t.Error("a tie between shared attributes must go to the smaller name")
	}
}

func mustMap(t *testing.T, cat *catalog.Catalog, n int) *shard.Map {
	t.Helper()
	m, err := shard.NewMap(cat, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMapMatchesTupleHash pins the plane-wise derivation to the tuple rule:
// on the paper and synth databases (both relations hashed on the shared
// EmpName) and on synth's EMPLOYEE alone (no shared key: all its value
// attributes), at 1, 2 and 4 shards, every relation's row g lives on shard
// Tuple.HashOn(key) % n and nowhere else.
func TestMapMatchesTupleHash(t *testing.T) {
	synth := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 200, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 1})
	e, err := synth.Entry("EMPLOYEE")
	if err != nil {
		t.Fatal(err)
	}
	employees := catalog.New()
	employees.MustAdd("EMPLOYEE", e.Rel, e.Info)
	for _, db := range []struct {
		name   string
		cat    *catalog.Catalog
		shared bool
	}{{"paper", catalog.Paper(), true}, {"synth", synth, true}, {"employee-only", employees, false}} {
		for _, n := range []int{1, 2, 4} {
			m := mustMap(t, db.cat, n)
			for _, rel := range db.cat.Names() {
				whole, err := db.cat.Resolve(rel)
				if err != nil {
					t.Fatal(err)
				}
				key := physical.ValueIdx(whole.Schema())
				if db.shared {
					key = []int{whole.Schema().Index("EmpName")}
				}
				want := make([][]int, n)
				for g, tu := range whole.Tuples() {
					i := int(tu.HashOn(key) % uint64(n))
					want[i] = append(want[i], g)
				}
				for i := range n {
					got, err := m.Positions(rel, i)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want[i]) {
						t.Fatalf("%s at %d shards: %s shard %d holds %v, the tuple hash puts %v there", db.name, n, rel, i, got, want[i])
					}
				}
			}
		}
	}
}
