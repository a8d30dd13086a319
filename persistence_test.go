// Persistence acceptance tests: the disk catalog surfaced through the root
// facade must survive a restart bit-identically, and the period index must
// demonstrably skip segments on time-travel queries — both measured end to
// end through the optimizer, not against store internals.
package tqp_test

import (
	"testing"

	"tqp"
)

const paperSQL = `VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE
EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC`

// TestPersistenceSurvivesReopen seeds a disk catalog from the paper
// catalog, runs the running example, reopens the directory cold (no seed),
// and re-runs: names, fingerprints and the query result must all come back
// bit-identical to the purely in-memory run.
func TestPersistenceSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	cat, err := tqp.OpenDiskCatalog(dir, tqp.PaperCatalog())
	if err != nil {
		t.Fatal(err)
	}
	memResult, _, _, err := tqp.NewOptimizer(tqp.PaperCatalog()).Run(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	diskResult, _, _, err := tqp.NewOptimizer(cat).Run(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !memResult.EqualAsList(diskResult) {
		t.Fatalf("disk-backed run differs from in-memory run:\n%s\nvs\n%s", diskResult, memResult)
	}

	// Cold reopen: no seed — everything must come from the manifest.
	reopened, err := tqp.OpenDiskCatalog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reopened.Names()) != len(cat.Names()) {
		t.Fatalf("reopened catalog has %v, want %v", reopened.Names(), cat.Names())
	}
	if reopened.Fingerprint() != cat.Fingerprint() {
		t.Fatal("catalog fingerprint changed across reopen")
	}
	for _, name := range cat.Names() {
		want, err := cat.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualAsList(got) {
			t.Fatalf("%s differs across reopen", name)
		}
	}
	again, _, _, err := tqp.NewOptimizer(reopened).Run(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !memResult.EqualAsList(again) {
		t.Fatalf("post-restart run differs from in-memory run:\n%s\nvs\n%s", again, memResult)
	}
}

// TestTimeTravelSkipsSegments is the vacuity guard for the period index: a
// FOR SYSTEM_TIME AS OF query over a three-era disk relation must skip
// fenced segments (Trace.SegmentsSkipped > 0), a full scan must read all
// of them, and the travel result must contain exactly the era it names.
func TestTimeTravelSkipsSegments(t *testing.T) {
	dir := t.TempDir()
	cat, err := tqp.OpenDiskCatalog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	sch := tqp.MustSchema(
		tqp.Attr("Name", tqp.KindString),
		tqp.Attr("T1", tqp.KindTime),
		tqp.Attr("T2", tqp.KindTime),
	)
	// Three appends → three segments with disjoint chronon fences.
	if err := cat.AddDisk("R", tqp.RelationFromRows(sch, [][]any{
		{"old", 0, 10}, {"older", 2, 8},
	}), tqp.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AppendRows("R", [][]any{{"mid", 100, 110}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AppendRows("R", [][]any{{"new", 200, 210}}); err != nil {
		t.Fatal(err)
	}

	opt := tqp.NewOptimizer(cat)
	result, _, trace, err := opt.Run("SELECT Name FROM R FOR SYSTEM_TIME AS OF 105")
	if err != nil {
		t.Fatal(err)
	}
	if result.Len() != 1 {
		t.Fatalf("AS OF 105 returned %d tuples, want the one mid-era row:\n%s", result.Len(), result)
	}
	if trace.SegmentsSkipped == 0 {
		t.Fatal("AS OF query skipped no segments — the period index is vacuous")
	}
	if trace.SegmentsScanned != 1 || trace.SegmentsSkipped != 2 {
		t.Fatalf("AS OF 105 scanned %d / skipped %d segments, want 1 / 2",
			trace.SegmentsScanned, trace.SegmentsSkipped)
	}

	result, _, trace, err = opt.Run("SELECT Name FROM R")
	if err != nil {
		t.Fatal(err)
	}
	if result.Len() != 4 {
		t.Fatalf("full scan returned %d tuples, want 4", result.Len())
	}
	if trace.SegmentsScanned != 3 || trace.SegmentsSkipped != 0 {
		t.Fatalf("full scan scanned %d / skipped %d segments, want 3 / 0",
			trace.SegmentsScanned, trace.SegmentsSkipped)
	}

	// Every physical engine reads the store-backed relations identically:
	// the reference evaluator's travel result is the anchor, and the hash,
	// parallel and memory-bounded engines must match it bit for bit.
	refSpec, err := tqp.ResolveEngine("reference")
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := tqp.NewOptimizer(cat, tqp.WithEngine(refSpec)).
		Run("SELECT Name FROM R FOR SYSTEM_TIME AS OF 105")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []tqp.EngineConfig{
		{},
		{Parallelism: 4},
		{MemoryBudget: 64 << 10},
	} {
		spec, err := tqp.ResolveEngineFor("exec", cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := tqp.NewOptimizer(cat, tqp.WithEngine(spec)).
			Run("SELECT Name FROM R FOR SYSTEM_TIME AS OF 105")
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualAsList(got) {
			t.Fatalf("engine config %+v diverges from the reference on a store-backed travel scan", cfg)
		}
	}

	// FOR PERIOD spanning two eras prunes exactly the third.
	result, _, trace, err = opt.Run("SELECT Name FROM R FOR PERIOD (5, 105)")
	if err != nil {
		t.Fatal(err)
	}
	if result.Len() != 3 {
		t.Fatalf("FOR PERIOD (5,105) returned %d tuples, want 3:\n%s", result.Len(), result)
	}
	if trace.SegmentsScanned != 2 || trace.SegmentsSkipped != 1 {
		t.Fatalf("FOR PERIOD (5,105) scanned %d / skipped %d segments, want 2 / 1",
			trace.SegmentsScanned, trace.SegmentsSkipped)
	}
}
