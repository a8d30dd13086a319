package rules_test

import (
	"testing"

	"tqp/internal/rules"
)

// TestCatalogSize pins the rule-catalog size that E6 reports per
// equivalence type; update it when adding rules.
func TestCatalogSize(t *testing.T) {
	if got := len(rules.All()); got != 66 {
		t.Errorf("rule catalog has %d rules, want 66 — update this test when adding rules", got)
	}
	names := map[string]bool{}
	for _, r := range rules.All() {
		if names[r.Name] {
			t.Errorf("duplicate rule name %s", r.Name)
		}
		names[r.Name] = true
		if r.Doc == "" {
			t.Errorf("rule %s lacks documentation", r.Name)
		}
	}
}
