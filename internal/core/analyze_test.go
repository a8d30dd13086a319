package core_test

import (
	"strings"
	"testing"

	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/exec"
	"tqp/internal/obs"
)

// TestExplainAnalyzePaperQuery pins the rendered analysis on the paper's
// running example: a header with wall/rows/fingerprint, per-node est-vs-
// actual annotations on stratum nodes, and the (dbms) marker on nodes
// that executed inside the DBMS black box.
func TestExplainAnalyzePaperQuery(t *testing.T) {
	opt := core.New(catalog.Paper(), core.WithEngine(exec.NewSpec(exec.Config{})))
	prep, err := opt.Prepare(engineTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	an, err := opt.ExplainAnalyze(prep, exec.NewSpec(exec.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if an.Result.Len() != len(catalog.PaperResultRows()) {
		t.Fatalf("analyzed run returned %d rows, want %d", an.Result.Len(), len(catalog.PaperResultRows()))
	}
	text := an.Text
	if !strings.HasPrefix(text, "EXPLAIN ANALYZE") {
		t.Fatalf("missing header:\n%s", text)
	}
	for _, want := range []string{
		"plan=" + prep.Fingerprint, // header names the plan identity
		"rows est≈",                // estimates rendered
		" act=",                    // actuals rendered
		"act=(dbms)",               // DBMS-interior nodes are a black box
		"(×",                       // misestimate ratio
	} {
		if !strings.Contains(text, want) {
			t.Errorf("analysis missing %q:\n%s", want, text)
		}
	}
	if an.Probe.Len() == 0 {
		t.Fatal("no per-node actuals collected")
	}
	if an.Trace == nil || an.Trace.TuplesTransferred == 0 {
		t.Fatal("analysis lost the execution trace")
	}
}

// TestExplainAnalyzeParity executes one prepared plan under every engine
// and demands bit-identical results plus identical per-node actuals: each
// stratum node's actual row count must equal the reference evaluator's
// intermediate cardinality at the same plan position, whatever engine
// materialized it.
func TestExplainAnalyzeParity(t *testing.T) {
	c := catalog.Paper()
	opt := core.New(c, core.WithEngine(exec.NewSpec(exec.Config{})))
	prep, err := opt.Prepare(engineTestSQL)
	if err != nil {
		t.Fatal(err)
	}

	refSpec, err := core.EngineSpec("reference")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := opt.ExplainAnalyze(prep, refSpec)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	refRows := map[string]int64{}
	ref.Probe.Each(func(path string, n *obs.NodeStats) { refRows[path] = n.Rows })
	if len(refRows) == 0 {
		t.Fatal("reference run observed no nodes")
	}

	for _, e := range []struct {
		name     string
		parallel int
		mem      int64
	}{
		{"exec", 0, 0},        // streaming hash engine
		{"exec", 4, 0},        // morsel-parallel
		{"parallel", 2, 0},    // parallel alias
		{"exec", 0, 64 << 10}, // budgeted, spills on this plan's joins
		{"exec", 2, 16 << 20}, // parallel + budgeted
	} {
		spec, err := core.EngineFor(e.name, exec.Config{Parallelism: e.parallel, MemoryBudget: e.mem})
		if err != nil {
			t.Fatal(err)
		}
		an, err := opt.ExplainAnalyze(prep, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !an.Result.EqualAsList(ref.Result) {
			t.Errorf("%s: result differs from reference:\n%s\nvs\n%s", spec.Name, an.Result, ref.Result)
		}
		if an.Probe.Len() != len(refRows) {
			t.Errorf("%s: observed %d nodes, reference %d", spec.Name, an.Probe.Len(), len(refRows))
		}
		an.Probe.Each(func(path string, n *obs.NodeStats) {
			want, ok := refRows[path]
			if !ok {
				t.Errorf("%s: node %s observed but not by the reference run", spec.Name, path)
				return
			}
			if n.Rows != want {
				t.Errorf("%s: node %s actual rows = %d, reference intermediate cardinality = %d",
					spec.Name, path, n.Rows, want)
			}
		})
	}
}

// TestPreparedEstimates pins that Prepare retains the cost model's
// per-node estimates keyed by plan path, including the root.
func TestPreparedEstimates(t *testing.T) {
	opt := core.New(catalog.Paper(), core.WithEngine(exec.NewSpec(exec.Config{})))
	prep, err := opt.Prepare(engineTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Estimates) == 0 {
		t.Fatal("no per-node estimates retained")
	}
	root, ok := prep.Estimates["ε"]
	if !ok || root.Rows <= 0 {
		t.Fatalf("root estimate missing or empty: %+v (have %d nodes)", root, len(prep.Estimates))
	}
	if prep.Fingerprint == "" || len(prep.Fingerprint) != 16 {
		t.Fatalf("plan fingerprint %q", prep.Fingerprint)
	}
}
