package core_test

import (
	"testing"

	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/exec"
	"tqp/internal/relation"
)

const engineTestSQL = `VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE
EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC`

// TestRunOnBothEngines drives the full pipeline — parse, enumerate, cost,
// layered execution, ≡SQL verification — on each physical engine and pins
// all of them to the paper's Result relation. Run itself re-verifies the
// layered result against the reference evaluation, so a pass on the exec
// and parallel engines is an end-to-end differential check through the
// stratum.
func TestRunOnBothEngines(t *testing.T) {
	for _, tc := range []struct {
		name     string
		parallel int
		mem      int64
		want     string
	}{
		{"reference", 0, 0, "reference"},
		{"exec", 0, 0, "exec"},
		{"exec", 4, 0, "exec-par4"},
		{"parallel", 2, 0, "exec-par2"},
		{"exec", 0, 64 << 10, "exec-mem64K"},
		{"exec", 2, 16 << 20, "exec-par2-mem16M"},
	} {
		spec, err := core.EngineFor(tc.name, exec.Config{Parallelism: tc.parallel, MemoryBudget: tc.mem})
		if err != nil {
			t.Fatal(err)
		}
		c := catalog.Paper()
		opt := core.New(c, core.WithEngine(spec))
		got, _, trace, err := opt.Run(engineTestSQL)
		if err != nil {
			t.Fatalf("engine %s: Run: %v", tc.want, err)
		}
		if trace.Engine != tc.want {
			t.Errorf("engine %s: trace records engine %q", tc.want, trace.Engine)
		}
		want := relation.MustFromRows(got.Schema(), catalog.PaperResultRows())
		if !got.EqualAsList(want) {
			t.Errorf("engine %s: result differs from Figure 1:\n%s", tc.want, got)
		}
	}
}

// TestEngineSpecRejectsUnknown pins the registry's error paths the cmd
// flags rely on.
func TestEngineSpecRejectsUnknown(t *testing.T) {
	if _, err := core.EngineSpec("vectorized"); err == nil {
		t.Fatal("unknown engine name must be rejected")
	}
	spec, err := core.EngineSpec("")
	if err != nil || spec.Name != "reference" {
		t.Fatalf("empty name must default to the reference engine, got %q, %v", spec.Name, err)
	}
	if _, err := core.EngineFor("reference", exec.Config{Parallelism: 8}); err == nil {
		t.Fatal("the single-threaded reference evaluator must reject a parallelism request")
	}
	if _, err := core.EngineFor("reference", exec.Config{MemoryBudget: 1 << 20}); err == nil {
		t.Fatal("the reference evaluator must reject a memory budget")
	}
	if _, err := core.EngineFor("exec", exec.Config{MemoryBudget: -1}); err == nil {
		t.Fatal("a negative memory budget must be rejected")
	}
	spec, err = core.EngineFor("parallel", exec.Config{})
	if err != nil || spec.Parallelism < 1 {
		t.Fatalf("'parallel' must default to a positive worker count, got %d, %v", spec.Parallelism, err)
	}
	spec, err = core.EngineFor("exec", exec.Config{MemoryBudget: 64 << 10})
	if err != nil || spec.MemoryBudget != 64<<10 {
		t.Fatalf("budgeted spec must carry its budget, got %d, %v", spec.MemoryBudget, err)
	}
	// One naming scheme: the degenerate parallel width is plain "exec".
	spec, err = core.EngineFor("parallel", exec.Config{Parallelism: 1})
	if err != nil || spec.Name != "exec" {
		t.Fatalf("'parallel' at width 1 must be the sequential engine, got %q, %v", spec.Name, err)
	}
}

// TestPaperPlanFingerprints pins the plan the optimizer chooses for the
// paper statement on tqplan's 2000-employee synthetic database, per engine
// spec. The values were recorded while eval.EngineSpec still carried a
// separate columnar flag next to Streaming: folding the two must change no
// plan, with or without the parallel and spill shapes the flag discounted.
func TestPaperPlanFingerprints(t *testing.T) {
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 2000, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 42})
	for _, tc := range []struct {
		cfg  exec.Config
		want string
	}{
		{exec.Config{}, "629fc942666c1c11"},
		{exec.Config{Parallelism: 4}, "629fc942666c1c11"},
		{exec.Config{MemoryBudget: 512 << 10}, "e57f876bff357ed4"},
	} {
		spec := exec.NewSpec(tc.cfg)
		prep, err := core.New(db, core.WithEngine(spec)).Prepare(engineTestSQL)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", spec.Name, err)
		}
		if prep.Fingerprint != tc.want {
			t.Errorf("%s: plan fingerprint %s, want %s", spec.Name, prep.Fingerprint, tc.want)
		}
	}
}

// TestParseBytes pins the -mem flag syntax.
func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"", 0}, {"0", 0}, {"65536", 65536},
		{"64K", 64 << 10}, {"64k", 64 << 10},
		{"16M", 16 << 20}, {"2g", 2 << 30},
		// Two-letter unit spellings: a trailing b/B after a unit letter.
		{"64KB", 64 << 10}, {"64kb", 64 << 10}, {"64Kb", 64 << 10},
		{"16MB", 16 << 20}, {"16mB", 16 << 20}, {"1GB", 1 << 30}, {"2gb", 2 << 30},
		// A trailing b/B after a digit is plain bytes.
		{"512B", 512}, {"512b", 512}, {"0B", 0},
	} {
		got, err := core.ParseBytes(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"x", "-1", "12xy3", "K", "17179869184G", "9223372036854775807M",
		"B", "b", "KB", "64KBB", "64BK", "xB"} {
		if _, err := core.ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) should fail", bad)
		}
	}
}
