package stratum_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/obs"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/stratum"
	"tqp/internal/value"
)

const paperSQL = `VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE
EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC`

// roundTrip is the TD plan of TestValidateSites: a stratum region
// (coalᵀ(rdupᵀ(TS))) below a TD, re-entered from the DBMS region that sorts
// its result; the plan's outer region is a bare TS.
func roundTrip(c *catalog.Catalog) algebra.Node {
	return algebra.NewTransferS(
		algebra.NewSort(relation.OrderSpec{relation.Key("EmpName")},
			algebra.NewTransferD(
				algebra.NewCoal(algebra.NewTRdup(
					algebra.NewTransferS(catalog.PaperProjection(c.MustNode("EMPLOYEE"))))))))
}

// TestTraceGoldens pins the trace of the paper's plans to the values the
// node-at-a-time executor recorded before regions ran as one evaluation:
// the shipped SQL (hashed), the transfer count and the three simulated unit
// totals, exactly — the meter reads the same cardinalities and the same
// physical decisions, only from inside one engine run.
func TestTraceGoldens(t *testing.T) {
	c := catalog.Paper()
	for _, g := range []struct {
		engine, plan, want string
	}{
		{"reference", "initial", "sql=db916645398b325b/1 transferred=10 stratum=0 dbms=2137.3559088227994 transfer=20"},
		{"reference", "intermediate", "sql=76df3cb06d9ba40d/2 transferred=13 stratum=186.8771237954945 dbms=5.2 transfer=26"},
		{"reference", "optimized", "sql=6a92b7c0670380e5/2 transferred=13 stratum=105.65784284662087 dbms=6.360964047443681 transfer=26"},
		{"reference", "prepared", "sql=6a92b7c0670380e5/2 transferred=13 stratum=138.8771237954945 dbms=6.360964047443681 transfer=26"},
		{"exec", "initial", "sql=db916645398b325b/1 transferred=10 stratum=0 dbms=2137.3559088227994 transfer=20"},
		{"exec", "intermediate", "sql=76df3cb06d9ba40d/2 transferred=13 stratum=60.219280948873624 dbms=5.2 transfer=26"},
		{"exec", "optimized", "sql=6a92b7c0670380e5/2 transferred=13 stratum=14.5 dbms=6.360964047443681 transfer=26"},
		{"exec", "prepared", "sql=6a92b7c0670380e5/2 transferred=13 stratum=17 dbms=6.360964047443681 transfer=26"},
		{"exec-par4", "initial", "sql=db916645398b325b/1 transferred=10 stratum=0 dbms=2137.3559088227994 transfer=20"},
		{"exec-par4", "intermediate", "sql=76df3cb06d9ba40d/2 transferred=13 stratum=24.304820237218408 dbms=5.2 transfer=26"},
		{"exec-par4", "optimized", "sql=6a92b7c0670380e5/2 transferred=13 stratum=8.375 dbms=6.360964047443681 transfer=26"},
		{"exec-par4", "prepared", "sql=6a92b7c0670380e5/2 transferred=13 stratum=10.875 dbms=6.360964047443681 transfer=26"},
		{"exec-mem64K", "initial", "sql=db916645398b325b/1 transferred=10 stratum=0 dbms=2137.3559088227994 transfer=20"},
		{"exec-mem64K", "intermediate", "sql=76df3cb06d9ba40d/2 transferred=13 stratum=60.219280948873624 dbms=5.2 transfer=26"},
		{"exec-mem64K", "optimized", "sql=6a92b7c0670380e5/2 transferred=13 stratum=14.5 dbms=6.360964047443681 transfer=26"},
		{"exec-mem64K", "prepared", "sql=6a92b7c0670380e5/2 transferred=13 stratum=17 dbms=6.360964047443681 transfer=26"},
	} {
		spec := map[string]eval.EngineSpec{
			"reference":   eval.Reference(),
			"exec":        exec.NewSpec(exec.Config{}),
			"exec-par4":   exec.NewSpec(exec.Config{Parallelism: 4}),
			"exec-mem64K": exec.NewSpec(exec.Config{MemoryBudget: 64 << 10}),
		}[g.engine]
		opt := core.New(c, core.WithEngine(spec))
		var plan algebra.Node
		switch g.plan {
		case "initial":
			plan = catalog.PaperInitialPlan(c)
		case "intermediate":
			plan = catalog.PaperIntermediatePlan(c)
		case "optimized":
			plan = catalog.PaperOptimizedPlan(c)
		default:
			prep, err := opt.Prepare(paperSQL)
			if err != nil {
				t.Fatal(err)
			}
			plan = prep.Plan
		}
		_, tr, err := opt.ExecutePlan(plan, spec)
		if err != nil {
			t.Fatalf("%s %s: %v", g.engine, g.plan, err)
		}
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		got := fmt.Sprintf("sql=%s/%d transferred=%d stratum=%s dbms=%s transfer=%s",
			obs.Hash(strings.Join(tr.SQL, "\n---\n")), len(tr.SQL), tr.TuplesTransferred,
			f(tr.StratumUnits), f(tr.DBMSUnits), f(tr.TransferUnits))
		if got != g.want {
			t.Errorf("%s %s: trace\n %s\nwant\n %s", g.engine, g.plan, got, g.want)
		}
	}
}

// TestOneEnginePerRegion counts engine instantiations per site: a plan
// costs one per stratum region holding an operator, however many nodes the
// region has, plus one per DBMS subplan executed, TD re-entries included. A
// region that is a bare TS instantiates no stratum engine; only its DBMS
// subplan does.
func TestOneEnginePerRegion(t *testing.T) {
	c := catalog.Paper()
	prep, err := core.New(c, core.WithEngine(exec.NewSpec(exec.Config{}))).Prepare(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name              string
		plan              algebra.Node
		regions, subplans int
	}{
		{"paper statement", prep.Plan, 1, 2},
		// The outer region is a bare TS; the TD re-enters the stratum for
		// one region, whose TS ships a second subplan.
		{"TD round trip", roundTrip(c), 1, 2},
		{"operator above the round trip", algebra.NewCoal(roundTrip(c)), 2, 2},
	} {
		for _, spec := range []eval.EngineSpec{eval.Reference(), exec.NewSpec(exec.Config{}), exec.NewSpec(exec.Config{Parallelism: 4, MemoryBudget: 64 << 10})} {
			made := 0
			inner := spec.New
			spec.New = func(src eval.Source) eval.Engine {
				made++
				return inner(src)
			}
			_, tr, err := stratum.NewWithEngine(c, 1, spec).Execute(tc.plan)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, spec.Name, err)
			}
			if len(tr.SQL) != tc.subplans {
				t.Errorf("%s on %s: %d DBMS subplans executed, want %d", tc.name, spec.Name, len(tr.SQL), tc.subplans)
			}
			if made != tc.regions+tc.subplans {
				t.Errorf("%s on %s: %d engines instantiated, want %d regions + %d subplans", tc.name, spec.Name, made, tc.regions, tc.subplans)
			}
		}
	}
}

// TestMidRegionErrorCleansUp fails an operator in the middle of a budgeted
// region while the sort below it holds spilled runs: the caller sees the
// operator's own error, and the run's spill directory is gone.
func TestMidRegionErrorCleansUp(t *testing.T) {
	const rows = 6000
	sch := schema.MustNew(schema.Attr("Name", value.KindString), schema.Attr("X", value.KindInt))
	r := relation.New(sch)
	for i := 0; i < rows; i++ {
		r.Append(relation.Tuple{value.String_(fmt.Sprintf("n%04d", i%97)), value.Int(int64(i))})
	}
	c := catalog.New()
	if err := c.Add("R", r, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	// 1/(X-k) divides by zero on a row of the sorted stream's last batch.
	div := expr.Arith{Op: expr.Div, L: expr.Literal(value.Int(1)),
		R: expr.Arith{Op: expr.Sub, L: expr.Column("X"), R: expr.Literal(value.Int(rows - 5))}}
	plan := algebra.NewSort(relation.OrderSpec{relation.Key("Name")},
		algebra.NewProject([]algebra.ProjItem{{Expr: expr.Column("Name"), As: "Name"}, {Expr: div, As: "Y"}},
			algebra.NewSort(relation.OrderSpec{relation.Key("X")},
				algebra.NewTransferS(c.MustNode("R")))))

	dir := t.TempDir()
	spec := exec.NewSpec(exec.Config{MemoryBudget: 64 << 10, SpillDir: dir})
	_, _, err := stratum.NewWithEngine(c, 1, spec).Execute(plan)
	if err == nil || err.Error() != "expr: division by zero" {
		t.Fatalf("error = %v, want the projection's division by zero", err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("spill directory not cleaned up after a mid-region error: %v", left)
	}
	// The same plan without the poisoned row spills and succeeds: the error
	// above really struck a region with spill files open.
	ok := algebra.NewSort(relation.OrderSpec{relation.Key("Name")},
		algebra.NewSort(relation.OrderSpec{relation.Key("X")}, algebra.NewTransferS(c.MustNode("R"))))
	_, tr, err := stratum.NewWithEngine(c, 1, spec).Execute(ok)
	if err != nil || tr.SpilledBytes == 0 {
		t.Fatalf("control run: err=%v spilled=%d bytes", err, tr.SpilledBytes)
	}
}

// TestTSLeafScannedFromColumns counts tuple→column conversions across
// every engine a statement instantiates: a DBMS result reaches the stratum
// as its engine's columns, and a stratum result reaches the DBMS (TD) the
// same way, so only the catalog's base relations are ever converted — once,
// on the first run, after which their cached images serve every scan.
func TestTSLeafScannedFromColumns(t *testing.T) {
	c := catalog.Paper()
	prep, err := core.New(c, core.WithEngine(exec.NewSpec(exec.Config{}))).Prepare(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		plan  algebra.Node
		bases int // distinct base relations the plan scans
	}{
		{"paper statement", prep.Plan, 2},
		{"operator above the round trip", algebra.NewCoal(roundTrip(c)), 1},
	} {
		for _, cfg := range []exec.Config{{}, {Parallelism: 4, MemoryBudget: 64 << 10}} {
			spec := exec.NewSpec(cfg)
			var engines []*exec.Engine
			inner := spec.New
			spec.New = func(src eval.Source) eval.Engine {
				e := inner(src).(*exec.Engine)
				engines = append(engines, e)
				return e
			}
			x := stratum.NewWithEngine(catalog.Paper(), 1, spec)
			for run, want := range []int{tc.bases, 0} {
				engines = engines[:0]
				if _, _, err := x.Execute(tc.plan); err != nil {
					t.Fatalf("%s on %s: %v", tc.name, spec.Name, err)
				}
				got := 0
				for _, e := range engines {
					got += e.Stats().ScanConversions
				}
				if got != want {
					t.Errorf("%s on %s, run %d: %d scan conversions over %d engines, want %d", tc.name, spec.Name, run+1, got, len(engines), want)
				}
			}
		}
	}
}

// TestDBMSSpillCounted: a DBMS subplan runs on the statement's budgeted
// engine, so a TS-side sort can spill; the trace counts it, and the spill
// directory is empty afterwards.
func TestDBMSSpillCounted(t *testing.T) {
	const rows = 6000
	sch := schema.MustNew(schema.Attr("Name", value.KindString), schema.Attr("X", value.KindInt))
	r := relation.New(sch)
	for i := 0; i < rows; i++ {
		r.Append(relation.Tuple{value.String_(fmt.Sprintf("n%04d", i%97)), value.Int(int64(i))})
	}
	c := catalog.New()
	if err := c.Add("R", r, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	plan := algebra.NewTransferS(algebra.NewSort(relation.OrderSpec{relation.Key("Name")}, c.MustNode("R")))

	dir := t.TempDir()
	spec := exec.NewSpec(exec.Config{MemoryBudget: 64 << 10, SpillDir: dir})
	got, tr, err := stratum.NewWithEngine(c, 1, spec).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rows || !got.SortedBy(relation.OrderSpec{relation.Key("Name")}) {
		t.Fatalf("TS(sort(R)) returned %d rows, sorted=%v", got.Len(), got.SortedBy(relation.OrderSpec{relation.Key("Name")}))
	}
	if tr.SpilledBytes == 0 || tr.SpilledOps == 0 {
		t.Errorf("DBMS-site spill not in the trace: spilled=%dB/%d ops", tr.SpilledBytes, tr.SpilledOps)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("spill directory not cleaned up after the DBMS subplan: %v", left)
	}
}
