// Command crfsvet mechanically enforces the DESIGN.md concurrency and
// integrity invariants over this module: lock ordering (lockorder),
// lock-free counters (atomicstats), sentinel-error discipline
// (errwrap), checksum-verified decode paths (decodeverify), and the
// IO-worker priority model (workerqueue).
//
// Usage (the CI path; `go test ./...` runs the same suite over the same
// module as internal/analysis/suite's TestModuleInvariants):
//
//	go run ./cmd/crfsvet ./...          # whole module, tests included
//	go run ./cmd/crfsvet ./internal/core
//	go run ./cmd/crfsvet -analyzers lockorder,errwrap ./...
//
// Exit codes are fsck-style, matching crfsck: 0 clean, 2 findings,
// 1 operational error. Waived findings (//crfsvet:ignore with a reason)
// do not fail the run but are always counted and printed — a waiver is
// visible, never silent.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"crfs/internal/analysis"
	"crfs/internal/analysis/suite"
)

const (
	exitClean    = 0
	exitError    = 1
	exitFindings = 2
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("crfsvet", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list analyzers and exit")
		noTests   = fs.Bool("notests", false, "exclude _test.go files from analysis")
		analyzers = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: crfsvet [flags] [packages]\n\npackages default to ./...\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	selected := suite.ByName(splitNames(*analyzers))
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "crfsvet: no analyzer matches -analyzers=%s\n", *analyzers)
		return exitError
	}
	if *list {
		for _, a := range suite.All {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "crfsvet:", err)
		return exitError
	}
	paths, err := resolvePatterns(loader, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "crfsvet:", err)
		return exitError
	}

	var units []*analysis.Package
	for _, p := range paths {
		u, err := loader.Load(p, !*noTests)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crfsvet:", err)
			return exitError
		}
		units = append(units, u...)
	}

	res, err := analysis.RunAnalyzers(units, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crfsvet:", err)
		return exitError
	}
	return report(res, len(paths))
}

func report(res *analysis.Result, pkgs int) int {
	findings := res.Findings()
	suppressed := res.Suppressed()
	for _, d := range findings {
		fmt.Printf("%s\n", d)
	}
	for _, d := range suppressed {
		fmt.Printf("%s: [%s] waived: %s (reason: %s)\n", d.Pos, d.Analyzer, d.Message, d.Reason)
	}
	fmt.Printf("crfsvet: %d packages, %d findings, %d waived (//crfsvet:ignore)\n",
		pkgs, len(findings), len(suppressed))
	if len(findings) > 0 {
		return exitFindings
	}
	return exitClean
}

func splitNames(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// resolvePatterns maps command-line package patterns to module import
// paths: "./..." (or no argument) is the whole module; "./x/y" is the
// package at that directory; a bare path is taken as a module import
// path, with the module prefix supplied if missing.
func resolvePatterns(loader *analysis.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		return loader.ModulePackages()
	}
	seen := make(map[string]bool)
	var paths []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			all, err := loader.ModulePackages()
			if err != nil {
				return nil, err
			}
			for _, p := range all {
				add(p)
			}
		case strings.HasPrefix(arg, "./") || arg == ".":
			abs, err := filepath.Abs(arg)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(loader.ModuleRoot, abs)
			if err != nil || strings.HasPrefix(rel, "..") {
				return nil, fmt.Errorf("%s is outside module %s", arg, loader.ModulePath)
			}
			if rel == "." {
				add(loader.ModulePath)
			} else {
				add(loader.ModulePath + "/" + filepath.ToSlash(rel))
			}
		case strings.HasPrefix(arg, loader.ModulePath+"/") || arg == loader.ModulePath:
			add(arg)
		default:
			add(loader.ModulePath + "/" + arg)
		}
	}
	return paths, nil
}
