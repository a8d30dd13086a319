package experiments_test

import (
	"strings"
	"testing"

	"tqp/internal/core"
	"tqp/internal/experiments"
)

// TestAllExperimentsPass keeps cmd/tqbench honest under `go test`: every
// experiment must pass and carry a non-trivial body.
func TestAllExperimentsPass(t *testing.T) {
	reports := experiments.All()
	if len(reports) != 10 {
		t.Fatalf("expected 10 experiments, got %d", len(reports))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		if !r.Pass {
			t.Errorf("%s (%s) failed:\n%s", r.ID, r.Title, r.Body)
		}
		if len(r.Body) < 40 {
			t.Errorf("%s: suspiciously empty body", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

// TestE1PrintsResult: the E1 body must contain the Result table rows the
// paper prints.
func TestE1PrintsResult(t *testing.T) {
	r := experiments.E1Figure1()
	for _, row := range []string{"Anna     10  12", "John     10  11"} {
		if !strings.Contains(r.Body, row) {
			t.Errorf("E1 body missing row %q:\n%s", row, r.Body)
		}
	}
}

// TestE8ReportsDerivation: the enumeration experiment must show a concrete
// rule derivation of the Figure 6(b) plan.
func TestE8ReportsDerivation(t *testing.T) {
	r := experiments.E8Figure5()
	if !strings.Contains(r.Body, "derivation of Figure 6(b)") {
		t.Errorf("E8 body missing the derivation:\n%s", r.Body)
	}
	if !strings.Contains(r.Body, "C10") {
		t.Errorf("derivation should pass through C10 (coalescing below the difference):\n%s", r.Body)
	}
}

// TestE9SpeedupsMonotonic: larger databases should not shrink the benefit.
func TestE9SpeedupsMonotonic(t *testing.T) {
	r := experiments.E9Stratum()
	if !r.Pass {
		t.Fatalf("E9 failed:\n%s", r.Body)
	}
	if !strings.Contains(r.Body, "x") {
		t.Errorf("E9 body should report speedups:\n%s", r.Body)
	}
}

// TestAllExperimentsPassOnExec re-runs the engine-sensitive experiments on
// the exec engine: the paper's artifacts must come out identical, so every
// report still passes — tqbench -engine exec is an end-to-end differential
// check of the streaming engine.
func TestAllExperimentsPassOnExec(t *testing.T) {
	spec, err := core.EngineSpec("exec")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []experiments.Report{
		experiments.E1With(spec), experiments.E2With(spec),
		experiments.E3With(spec), experiments.E9With(spec),
	} {
		if !r.Pass {
			t.Errorf("%s (%s) failed on the exec engine:\n%s", r.ID, r.Title, r.Body)
		}
	}
}
