package main

import (
	"os"
	"path/filepath"
	"testing"
)

// chdirModuleRoot moves the test into the module root (two levels up
// from cmd/crfsvet) so ./-relative package patterns resolve the same way
// they do for a developer running the tool by hand.
func chdirModuleRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(wd, "..", "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestNegativeFixturesExitNonZero is the acceptance check that each
// analyzer's seeded-violation fixture fails the run: crfsvet must exit
// with the findings code, not silently pass, for every analyzer in the
// suite.
func TestNegativeFixturesExitNonZero(t *testing.T) {
	chdirModuleRoot(t)
	fixtures := map[string]string{
		"lockorder":    "./internal/analysis/lockorder/testdata/src/a",
		"atomicstats":  "./internal/analysis/atomicstats/testdata/src/a",
		"errwrap":      "./internal/analysis/errwrap/testdata/src/a",
		"decodeverify": "./internal/analysis/decodeverify/testdata/src/a",
		"workerqueue":  "./internal/analysis/workerqueue/testdata/src/core",
	}
	for name, dir := range fixtures {
		t.Run(name, func(t *testing.T) {
			if got := run([]string{"-analyzers", name, dir}); got != exitFindings {
				t.Fatalf("crfsvet -analyzers %s %s: exit %d, want %d (findings)", name, dir, got, exitFindings)
			}
		})
	}
}

// TestWaivedFindingsExitClean: a package whose only findings carry
// //crfsvet:ignore directives passes (exit 0) — waivers suppress the
// failure, not the report.
func TestWaivedFindingsExitClean(t *testing.T) {
	chdirModuleRoot(t)
	dir := "./internal/analysis/lockorder/testdata/src/truncopen"
	if got := run([]string{"-analyzers", "lockorder", dir}); got != exitClean {
		t.Fatalf("crfsvet %s: exit %d, want %d (clean: finding is waived)", dir, got, exitClean)
	}
}

func TestListAndBadAnalyzer(t *testing.T) {
	if got := run([]string{"-list"}); got != exitClean {
		t.Fatalf("-list: exit %d", got)
	}
	if got := run([]string{"-analyzers", "nosuch"}); got != exitError {
		t.Fatalf("-analyzers nosuch: exit %d, want %d", got, exitError)
	}
}
