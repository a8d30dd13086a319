package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/obs"
	"tqp/internal/physical"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/testutil"
	"tqp/internal/value"
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

// TestExplainAnalyzeParity executes prepared plans under every engine and
// demands bit-identical results, a result order equal to the plan's static
// root order (props.InferStates), and identical per-node actuals: each
// stratum node's actual row count must equal the reference evaluator's
// intermediate cardinality at the same plan position, whatever engine
// pipelined it — on the paper statement and on random layered plans (TS
// over every base relation, and stratum work shipped back into the DBMS
// through TD). The reference materializes every node, so equal rows at
// every path also pin that no exec operator stops pulling an input short
// of exhaustion.
func TestExplainAnalyzeParity(t *testing.T) {
	opt := core.New(catalog.Paper(), core.WithEngine(exec.NewSpec(exec.Config{})))
	prep, err := opt.Prepare(engineTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	analyzeParity(t, "paper statement", opt, prep)
	// Inside the DBMS only the top sort's ORDER BY holds (Section 4.5): the
	// inner sort's longer spec does not survive the outer one.
	sortOverSort := algebra.NewTransferS(algebra.NewSort(relation.OrderSpec{relation.Key("Dept")},
		algebra.NewSort(relation.OrderSpec{relation.Key("Dept"), relation.Key("EmpName")},
			catalog.Paper().MustNode("EMPLOYEE"))))
	analyzeParity(t, "sort over sort", opt, &core.Prepared{Plan: sortOverSort})

	c, leaves := testutil.TemporalCatalogSized(7, 60, 40)
	bases := make([]algebra.Node, len(leaves))
	for i, l := range leaves {
		bases[i] = algebra.NewTransferS(l)
	}
	opt = core.New(c, core.WithDBMSSeed(5))
	rng := rand.New(rand.NewSource(99))
	var spilled int64
	for i := 0; i < 240; i++ {
		plan := testutil.RandomPlan(rng, bases, 1+rng.Intn(3))
		if i%5 == 0 {
			// The round trip of stratum_test.go: a stratum region below a TD,
			// re-entered from the DBMS region that sorts its result.
			plan = algebra.NewTransferS(algebra.NewSort(relation.OrderSpec{relation.Key("Name")},
				algebra.NewTransferD(testutil.TemporalCore(rng, bases, 1+rng.Intn(2)))))
			if i%10 == 0 {
				plan = algebra.NewCoal(plan)
			}
		}
		name := fmt.Sprintf("plan %d %s", i, algebra.Canonical(plan))
		spilled += analyzeParity(t, name, opt, &core.Prepared{Plan: plan})
	}
	if spilled == 0 {
		t.Error("no random plan spilled under the 4 KiB budget: the budgeted routes went unobserved")
	}
}

// analyzeParity runs one plan analyzed on the reference evaluator and on the
// exec configurations, compares lists, observed path sets and per-path rows,
// and returns the spilled-operator count the budgeted runs reported.
func analyzeParity(t *testing.T, name string, opt *core.Optimizer, prep *core.Prepared) (spilled int64) {
	t.Helper()
	ref, err := opt.ExplainAnalyze(prep, eval.Reference())
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	refRows := map[string]int64{}
	ref.Probe.Each(func(path string, n *obs.NodeStats) { refRows[path] = n.Rows })
	if len(refRows) == 0 {
		t.Fatalf("%s: reference run observed no nodes", name)
	}
	reenters := false
	algebra.Walk(prep.Plan, func(n algebra.Node, _ algebra.Path) bool {
		reenters = reenters || n.Op() == algebra.OpTransferD
		return true
	})
	plain, _, err := opt.ExecutePlan(prep.Plan, eval.Reference())
	if err != nil {
		t.Fatalf("%s: plain reference run: %v", name, err)
	}
	if !plain.EqualAsList(ref.Result) {
		t.Errorf("%s: analyzed reference run differs from the plain run", name)
	}
	st, err := props.InferStates(prep.Plan)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := st[prep.Plan].Order; !plain.Order().Equal(want) {
		t.Errorf("%s: executed result order %s, static root order %s", name, plain.Order(), want)
	}

	for _, e := range []struct {
		name     string
		parallel int
		mem      int64
	}{
		{"exec", 0, 0},        // streaming hash engine
		{"exec", 4, 0},        // morsel-parallel
		{"parallel", 2, 0},    // parallel alias
		{"exec", 0, 64 << 10}, // budgeted, spills on the paper plan's joins
		{"exec", 0, 4 << 10},  // budgeted at the floor: the random plans spill
		{"exec", 2, 16 << 20}, // parallel + budgeted
	} {
		spec, err := core.EngineFor(e.name, exec.Config{Parallelism: e.parallel, MemoryBudget: e.mem})
		if err != nil {
			t.Fatal(err)
		}
		an, err := opt.ExplainAnalyze(prep, spec)
		if err != nil {
			t.Fatalf("%s: %s: %v", name, spec.Name, err)
		}
		if !an.Result.EqualAsList(ref.Result) || !an.Result.Order().Equal(ref.Result.Order()) {
			t.Errorf("%s: %s: result differs from reference:\n%s\nvs\n%s", name, spec.Name, an.Result, ref.Result)
		}
		if an.Probe.Len() != len(refRows) {
			t.Errorf("%s: %s: observed %d nodes, reference %d", name, spec.Name, an.Probe.Len(), len(refRows))
		}
		var nodeSpills int64
		an.Probe.Each(func(path string, n *obs.NodeStats) {
			nodeSpills += n.SpilledOps
			want, ok := refRows[path]
			if !ok {
				t.Errorf("%s: %s: node %s observed but not by the reference run", name, spec.Name, path)
				return
			}
			if n.Rows != want {
				t.Errorf("%s: %s: node %s actual rows = %d, reference intermediate cardinality = %d",
					name, spec.Name, path, n.Rows, want)
			}
		})
		// Per-node spill counts are the nodes' own shares of the run's
		// total; a region re-entered through TD runs unprobed.
		if nodeSpills != an.Trace.SpilledOps && !reenters {
			t.Errorf("%s: %s: nodes report %d spilled operators, the trace %d", name, spec.Name, nodeSpills, an.Trace.SpilledOps)
		}
		spilled += an.Trace.SpilledOps
	}
	return spilled
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

// TestExplainAnalyzeLabelsCompiledVariant: EXPLAIN ANALYZE labels each node
// with the variant the analyzing engine compiles for its width and budget.
// Over the sorted catalog both ⋈ᵀ inputs arrive key-sorted from the DBMS:
// the sequential engine merge-joins them, while the 4-wide engine, whose
// pool splits the probe side, runs — and is labelled — the hash join.
func TestExplainAnalyzeLabelsCompiledVariant(t *testing.T) {
	c := testutil.SortedCatalog(1200)
	byName := relation.OrderSpec{relation.Key("Name")}
	plan := algebra.NewTJoin(expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name")),
		algebra.NewTransferS(algebra.NewSort(byName, c.MustNode("L"))),
		algebra.NewTransferS(algebra.NewSort(byName, c.MustNode("R"))))
	opt := core.New(c)
	for _, tc := range []struct {
		cfg  exec.Config
		want physical.Algo
	}{
		{exec.Config{}, physical.AlgoMergeJoin},
		{exec.Config{Parallelism: 4}, physical.AlgoHashJoin},
	} {
		spec := exec.NewSpec(tc.cfg)
		an, err := opt.ExplainAnalyze(&core.Prepared{Plan: plan}, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		root := strings.SplitN(an.Text, "\n", 3)[1]
		if !strings.Contains(root, "("+string(tc.want)+")") {
			t.Errorf("%s: ⋈ᵀ labelled %q, want (%s)\n%s", spec.Name, root, tc.want, an.Text)
		}
	}
}

// tdiffRecorder wraps an engine and records the variant it reports
// compiling for every \ᵀ node it evaluates.
type tdiffRecorder struct {
	eval.Engine
	seen *[]physical.Variant
}

func (r tdiffRecorder) ObserveNodes(timed bool, fn func(algebra.Node, physical.Variant, obs.RunSample)) {
	r.Engine.(eval.NodeObserver).ObserveNodes(timed, func(n algebra.Node, v physical.Variant, s obs.RunSample) {
		if n.Op() == algebra.OpTDiff {
			*r.seen = append(*r.seen, v)
		}
		fn(n, v, s)
	})
}

// TestExplainAnalyzeLabelsMinusUnionOverATransfer pins that EXPLAIN ANALYZE
// prints the variant the engine compiles when \ᵀ's left is a TS over a
// snapshot-distinct base (the paper catalog's PROJECT): the stratum region
// binds the transferred result as a leaf, and that leaf must declare the
// claims the planner proved of the TS, or the engine would compile the
// sweep under a minus-union label.
func TestExplainAnalyzeLabelsMinusUnionOverATransfer(t *testing.T) {
	c := catalog.Paper()
	prj := c.MustNode("PROJECT")
	p2 := algebra.NewSelect(expr.Compare(expr.Eq, expr.Column("Prj"), expr.Literal(value.String_("P2"))), prj)
	plan := algebra.NewTDiff(algebra.NewTransferS(prj), algebra.NewTransferS(p2))
	st, err := props.InferStates(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !st[plan.Children()[0]].SnapshotDistinct {
		t.Fatal("vacuous: the TS over PROJECT is not statically snapshot-distinct")
	}
	opt := core.New(c)
	want, _, err := opt.ExecutePlan(plan, eval.Reference())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []exec.Config{{}, {Parallelism: 3}, {MemoryBudget: 4 << 10, SpillDir: t.TempDir()}} {
		spec := exec.NewSpec(cfg)
		var seen []physical.Variant
		inner := spec.New
		spec.New = func(src eval.Source) eval.Engine { return tdiffRecorder{inner(src), &seen} }
		an, err := opt.ExplainAnalyze(&core.Prepared{Plan: plan}, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(seen) != 1 || seen[0].Algo != physical.AlgoMinusUnion {
			t.Fatalf("%s: engine compiled \\ᵀ as %+v, want minus-union", spec.Name, seen)
		}
		root := strings.Split(an.Text, "\n")[1]
		if !strings.Contains(root, "("+string(seen[0].Algo)+")") {
			t.Fatalf("%s: EXPLAIN ANALYZE labels \\ᵀ %q, the engine compiled %s", spec.Name, root, seen[0].Algo)
		}
		if !an.Result.EqualAsList(want) {
			t.Fatalf("%s: result differs from the reference:\n%s\nvs\n%s", spec.Name, an.Result, want)
		}
	}
}
