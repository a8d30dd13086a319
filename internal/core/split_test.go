package core_test

import (
	"fmt"
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/exec"
	"tqp/internal/relation"
	"tqp/internal/shard"
	"tqp/internal/stratum"
)

// splitQueries exercises every fragment shape the splitter knows: bare
// scans, filtered chains, pushed sorts, and group operations above a
// sort-topped transfer.
var splitQueries = []string{
	"SELECT EmpName, Dept FROM EMPLOYEE",
	"VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Ship'",
	paperSQL,
	"VALIDTIME SELECT Dept, COUNT(*) AS headcount FROM EMPLOYEE GROUP BY Dept",
	"VALIDTIME SELECT DISTINCT 1.EmpName FROM EMPLOYEE, PROJECT WHERE 1.EmpName = 2.EmpName",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE ORDER BY EmpName ASC",
}

// TestSplitCoversEveryScan pins the splitter's core contract: every base
// relation access moves into a fragment, each fragment is a subtree of the
// plan, and the remainder only reads placeholders.
func TestSplitCoversEveryScan(t *testing.T) {
	cat := catalog.Paper()
	o := core.New(cat)
	total, grouped := 0, 0
	for _, policy := range []core.SplitPolicy{{}, {Colocated: func(string, []string) bool { return true }}} {
		for _, sql := range splitQueries {
			prep, err := o.Prepare(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			split, err := core.SplitForShards(prep.Plan, policy)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if len(split.Fragments) == 0 {
				t.Fatalf("%s: no fragments extracted", sql)
			}
			total += len(split.Fragments)
			names := make(map[string]bool)
			for _, f := range split.Fragments {
				if !strings.HasPrefix(f.Name, "@part") {
					t.Fatalf("%s: fragment name %q", sql, f.Name)
				}
				if names[f.Name] {
					t.Fatalf("%s: duplicate fragment name %q", sql, f.Name)
				}
				names[f.Name] = true
				// A fragment ships a subtree of the plan as it stands; a
				// grouped one drops only the transfer between its group
				// operation and the chain below it.
				shipped := f.Plan
				if f.Kind == core.FragmentGrouped {
					shipped = f.Plan.Children()[0]
					grouped++
				}
				if !hasSubtree(prep.Plan, shipped) {
					t.Fatalf("%s: fragment %s is not a subtree of the plan: %s", sql, f.Name, algebra.Canonical(f.Plan))
				}
				algebra.Walk(f.Plan, func(n algebra.Node, _ algebra.Path) bool {
					if rel, ok := n.(*algebra.Rel); ok {
						if _, err := cat.Resolve(rel.Name); err != nil {
							t.Fatalf("%s: fragment scans unknown relation %q", sql, rel.Name)
						}
					}
					return true
				})
				if f.Schema == nil {
					t.Fatalf("%s: fragment %s has no schema", sql, f.Name)
				}
			}
			algebra.Walk(split.Remainder, func(n algebra.Node, _ algebra.Path) bool {
				if n.Op() == algebra.OpRel {
					rel := n.(*algebra.Rel)
					if !names[rel.Name] {
						t.Fatalf("%s: remainder still reads base relation %q", sql, rel.Name)
					}
				}
				return true
			})
		}
	}
	if total < 2*len(splitQueries) || grouped == 0 {
		t.Fatalf("vacuous: %d fragments (%d grouped) across %d queries", total, grouped, len(splitQueries))
	}
}

// hasSubtree reports whether sub is one of root's nodes (the node itself,
// not an equal copy).
func hasSubtree(root, sub algebra.Node) bool {
	found := false
	algebra.Walk(root, func(n algebra.Node, _ algebra.Path) bool {
		found = found || n == sub
		return !found
	})
	return found
}

// TestSplitGroupPush pins the grouped-fragment path: with a colocating
// partitioning, at least one of the suite's group operations pushes down;
// with colocation denied, none do.
func TestSplitGroupPush(t *testing.T) {
	o := core.New(catalog.Paper())
	count := func(colocated func(string, []string) bool) map[core.FragmentKind]int {
		kinds := make(map[core.FragmentKind]int)
		for _, sql := range splitQueries {
			prep, err := o.Prepare(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			split, err := core.SplitForShards(prep.Plan, core.SplitPolicy{Colocated: colocated})
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			for _, f := range split.Fragments {
				kinds[f.Kind]++
			}
		}
		return kinds
	}
	always := count(func(string, []string) bool { return true })
	if always[core.FragmentGrouped] == 0 {
		t.Fatalf("no grouped fragment pushed with universal colocation: %v", always)
	}
	never := count(nil)
	if never[core.FragmentGrouped] != 0 {
		t.Fatalf("grouped fragments pushed without colocation: %v", never)
	}
}

// TestSplitDifferential is the in-process reference-vs-sharded leg: for
// every query, shard count and partitioning mode, running the fragments
// over the shard slices, merging, and executing the remainder over the
// merged placeholders must reproduce the single-node result bit for bit.
// The wire-protocol version of the same differential lives in
// internal/coord; this one isolates the split/merge algebra.
func TestSplitDifferential(t *testing.T) {
	paper := catalog.Paper()
	synthDB := datagen.EmployeeDB(datagen.EmployeeSpec{
		Employees: 30, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 42,
	})
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
	}{{"paper", paper}, {"synth", synthDB}} {
		spec := exec.NewSpec(exec.Config{})
		o := core.New(tc.cat, core.WithEngine(spec), core.WithDBMSSeed(1))
		for _, sql := range splitQueries {
			prep, err := o.Prepare(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want, _, err := o.ExecutePlan(prep.Plan, spec)
			if err != nil {
				t.Fatalf("%s: single-node: %v", sql, err)
			}
			for _, mode := range []shard.Mode{shard.Auto, shard.ForceHash, shard.ForceRange} {
				for _, n := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("%s/%v/%d/%s", tc.name, mode, n, sql[:24]), func(t *testing.T) {
						got := shardedRun(t, tc.cat, prep.Plan, mode, n)
						if !want.EqualAsList(got) {
							t.Fatalf("sharded result diverges from single node\nwant:\n%s\ngot:\n%s", want, got)
						}
					})
				}
			}
		}
	}
}

// shardedRun executes plan the way the coordinator does, but in process:
// partition the catalog, run each fragment on every slice, merge, and
// finish the remainder over the merged placeholders.
func shardedRun(t *testing.T, cat *catalog.Catalog, plan algebra.Node, mode shard.Mode, n int) *relation.Relation {
	t.Helper()
	m, err := shard.NewMapMode(cat, n, mode)
	if err != nil {
		t.Fatal(err)
	}
	split, err := core.SplitForShards(plan, core.SplitPolicy{Colocated: m.Colocated})
	if err != nil {
		t.Fatal(err)
	}
	type slice struct {
		sub *catalog.Catalog
		pos map[string][]int
	}
	slices := make([]slice, n)
	for i := 0; i < n; i++ {
		sub, pos, err := m.Partition(i)
		if err != nil {
			t.Fatal(err)
		}
		slices[i] = slice{sub, pos}
	}
	synth := catalog.New()
	for _, f := range split.Fragments {
		parts := make([]exec.TaggedRows, n)
		for i, s := range slices {
			rel, seqs, err := exec.RunFragment(f.Plan, s.sub, s.pos)
			if err != nil {
				t.Fatal(err)
			}
			if (seqs == nil) != (f.Kind == core.FragmentGrouped) {
				t.Fatalf("%s fragment %s returned sequence keys %v", f.Kind, f.Name, seqs)
			}
			b, _ := rel.Columns()
			parts[i] = exec.TaggedRows{Batch: b, Seqs: seqs}
		}
		if err := synth.AddTrusted(f.Name, f.Merge(parts), algebra.BaseInfo{Order: f.Order}); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := stratum.NewWithEngine(synth, 1, exec.NewSpec(exec.Config{})).Execute(split.Remainder)
	if err != nil {
		t.Fatal(err)
	}
	return got
}
