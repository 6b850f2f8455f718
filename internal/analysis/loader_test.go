package analysis

import (
	"testing"
)

func TestLoaderModuleDiscovery(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if l.ModulePath != "crfs" {
		t.Fatalf("module path = %q, want crfs", l.ModulePath)
	}
	pkgs, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"crfs":                  false,
		"crfs/internal/core":    false,
		"crfs/internal/codec":   false,
		"crfs/internal/compact": false,
		"crfs/cmd/crfsbench":    false,
	}
	for _, p := range pkgs {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("ModulePackages missing %s (got %v)", p, pkgs)
		}
	}
}

// TestLoaderTypeChecksCore proves the offline source loader can fully
// type-check the heaviest production package plus its in-package tests.
func TestLoaderTypeChecksCore(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.Load("crfs/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if len(u.Info.Defs) == 0 {
			t.Errorf("unit %s: empty type info", u.Path)
		}
		t.Logf("unit %s: %d files", u.Path, len(u.Files))
	}
}
