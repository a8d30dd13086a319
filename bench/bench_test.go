package main

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"tqp/internal/server"
)

// testSizes runs every workload's real code on a few hundred rows.
var testSizes = sizes{
	coldEmployees: 30, statements: 300, employees: 150, budget: 16 << 10,
	eras: 16, eraRows: 96, ingestRound: 4,
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every workload, traced, at a tiny scale: no operation fails, the
// non-vacuity assertions hold, and every per-layer metric is reported.
func TestWorkloadsTiny(t *testing.T) {
	spec := testSpec(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 5, sz: testSizes, tmp: t.TempDir()}
			r, errs, err := runWorkload(e, w, spec, "1", 120*time.Millisecond, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", r.Correct, r.Attempted, r.Failed, errs)
			}
			if len(r.Metrics) != len(spec.PerLayer) {
				t.Fatalf("reported %d per-layer metrics, BENCHMARK.json names %d", len(r.Metrics), len(spec.PerLayer))
			}
			if w.name == "exec.budget" && r.Metrics["spill_bytes"].Value == 0 {
				t.Error("exec.budget reports no spilled bytes")
			}
		})
	}
}

// The end-to-end run reports exactly the contract's metrics, none of them 0.
func TestEndToEndMetrics(t *testing.T) {
	spec := testSpec(t)
	e := &env{seed: 5, sz: testSizes, tmp: t.TempDir()}
	r, errs, err := runWorkload(e, findWorkload("store.travel"), spec, "0", 100*time.Millisecond, t.TempDir())
	if err != nil || !r.Correct {
		t.Fatal(err, errs)
	}
	if len(r.Metrics) != len(spec.EndToEnd) {
		t.Fatalf("reported %v", r.Metrics)
	}
	for _, m := range spec.EndToEnd {
		if got := r.Metrics[m.Name]; got.Value <= 0 || got.Unit != m.Unit {
			t.Errorf("%s = %+v", m.Name, got)
		}
	}
}

// BENCHMARK.json and the code name the same workloads and layer metrics.
func TestSpecMatchesCode(t *testing.T) {
	spec := testSpec(t)
	var inSpec, inCode []string
	for _, w := range spec.Workloads {
		inSpec = append(inSpec, w.Name)
	}
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	if !reflect.DeepEqual(inSpec, inCode) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", inSpec, inCode)
	}
	var layers []string
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	if !reflect.DeepEqual(layers, layerNames) {
		t.Errorf("per-layer metrics: BENCHMARK.json %v, code %v", layers, layerNames)
	}
	for workload, names := range exactCounts {
		if findWorkload(workload) == nil {
			t.Errorf("exact counts are declared for unknown workload %q", workload)
		}
		for _, name := range names {
			if !slices.Contains(layerNames, name) {
				t.Errorf("exact count %q is not a per-layer metric", name)
			}
		}
	}
}

func TestColdStatements(t *testing.T) {
	a := coldStatements(7, 1024)
	seen := map[string]bool{}
	for _, sql := range a {
		seen[server.NormalizeSQL(sql)] = true
	}
	if len(seen) != 1024 {
		t.Fatalf("%d distinct normalized texts, want 1024", len(seen))
	}
	if !reflect.DeepEqual(a, coldStatements(7, 1024)) {
		t.Error("one seed gave two statement lists")
	}
	if reflect.DeepEqual(a, coldStatements(8, 1024)) {
		t.Error("two seeds gave one statement list")
	}
}

// A parent's self time leaves out what its children cover: children are
// clipped to the parent and overlapping children count once.
func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	self := selfTimes([]span{
		{Op: 1, ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{Op: 1, ID: 2, Parent: 1, Name: "prepare", Start: 10 * ms, End: 50 * ms},
		{Op: 1, ID: 3, Parent: 2, Name: "beam", Start: 15 * ms, End: 45 * ms},
		{Op: 1, ID: 4, Parent: 1, Name: "execute", Start: 40 * ms, End: 70 * ms}, // overlaps prepare
		{Op: 1, ID: 5, Parent: 1, Name: "encode", Start: 90 * ms, End: 120 * ms}, // runs past the parent
	})
	want := map[string]float64{"op": 30, "prepare": 10, "beam": 30, "execute": 30, "encode": 30}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || math.Abs(got[0]-w) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", name, got, w)
		}
	}
}

func TestCoalescedCount(t *testing.T) {
	rows := []empRow{
		{"a", "d", 5, 8}, {"a", "e", 8, 9}, {"a", "d", 1, 3}, {"a", "d", 2, 4}, // a: [1,4) [5,9)
		{"b", "d", 1, 2}, {"b", "d", 1, 2}, // b: [1,2)
	}
	if got := coalescedCount(rows); got != 3 {
		t.Errorf("coalescedCount = %d, want 3", got)
	}
	if got := len(overlapping(rows, 4, 5)); got != 0 {
		t.Errorf("%d rows overlap [4,5), want 0", got)
	}
}

func TestCheck(t *testing.T) {
	spec := testSpec(t)
	file := func(p50 float64) *resultFile {
		return &resultFile{Seed: 1, Workloads: map[string]*result{"plan.cold": {
			Correct: true, Attempted: 10,
			Metrics: map[string]metric{
				"stmt_p50_ms": {p50, "ms"}, "stmt_per_s": {40, "1/s"},
				"allocs_per_stmt": {1000, "count"}, "setup_s": {0.3, "s"},
				"plans_enumerated": {187, "count"},
			},
		}}}
	}
	var out bytes.Buffer
	if status := compare(spec, file(25), file(25), &out); status != 0 {
		t.Errorf("identical files fail the check:\n%s", out.String())
	}
	if strings.Contains(out.String(), "unresolved") || !strings.Contains(out.String(), "identical") {
		t.Errorf("identical files:\n%s", out.String())
	}
	out.Reset()
	if status := compare(spec, file(25), file(25*(1+2*spec.EndToEnd[0].Bound)), &out); status == 0 {
		t.Errorf("a median slower by twice the bound passes the check:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "unresolved: b worse by") {
		t.Errorf("the regression is not reported as unresolved:\n%s", out.String())
	}
}
