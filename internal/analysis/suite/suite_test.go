package suite

import (
	"testing"

	"crfs/internal/analysis"
)

// TestModuleInvariants runs the crfsvet suite over every package of the
// module, tests included. Any unwaived finding fails it; waived findings
// are logged one per line, and the closing summary line counts both, so a
// waiver is visible, never silent.
func TestModuleInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	var units []*analysis.Package
	for _, p := range paths {
		u, err := loader.Load(p)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		units = append(units, u...)
	}
	res, err := analysis.RunAnalyzers(units, All)
	if err != nil {
		t.Fatal(err)
	}
	findings, waived := res.Findings(), res.Suppressed()
	for _, d := range findings {
		t.Errorf("%s", d)
	}
	for _, d := range waived {
		t.Logf("waived: %s: [%s] %s (reason: %s)", d.Pos, d.Analyzer, d.Message, d.Reason)
	}
	t.Logf("crfsvet: %d packages, %d findings, %d waived (//crfsvet:ignore)",
		len(paths), len(findings), len(waived))
}
