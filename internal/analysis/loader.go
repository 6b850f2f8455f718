package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks packages of one Go module without invoking the go
// tool and without export data: module-internal imports are resolved
// recursively from source, everything else (the standard library) is
// delegated to go/importer's "source" importer, which compiles nothing
// and therefore works in offline build environments.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	cache   map[string]*types.Package
	loading map[string]bool // import-cycle guard
}

// NewLoader locates the module containing dir (walking up to go.mod)
// and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: path,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*types.Package),
		loading:    make(map[string]bool),
	}, nil
}

func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Fset returns the loader's shared file set; all positions in loaded
// packages resolve through it.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer. Module-internal paths type-check
// from source with caching; all other paths fall through to the
// standard library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		if pkg, ok := l.cache[path]; ok {
			return pkg, nil
		}
		if l.loading[path] {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		pkg, err := l.checkDir(l.dirOf(path), path, false)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg.Types
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) dirOf(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// ModulePackages enumerates the module's package import paths (the
// `./...` set): every directory under the root holding at least one
// non-test .go file, skipping testdata, vendor, and hidden directories.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleRoot && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if e.Type().IsRegular() && strings.HasSuffix(e.Name(), ".go") &&
				!strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(l.ModuleRoot, p)
				if err != nil {
					return err
				}
				if rel == "." {
					paths = append(paths, l.ModulePath)
				} else {
					paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// A Package is one type-checked analysis unit. A directory yields up to
// two units: the package itself (production plus in-package _test.go
// files) and, when present, the external <pkg>_test package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load type-checks the module package at importPath, tests included:
// in-package _test.go files are folded into the unit and an external
// _test package becomes a second unit.
func (l *Loader) Load(importPath string) ([]*Package, error) {
	dir := l.dirOf(importPath)
	pkg, err := l.checkDir(dir, importPath, true)
	if err != nil {
		return nil, err
	}
	units := []*Package{pkg}
	xfiles, err := l.parseDir(dir, matchXTest(pkg.Types.Name()))
	if err != nil {
		return nil, err
	}
	if len(xfiles) > 0 {
		xpkg, err := l.check(importPath+"_test", dir, xfiles)
		if err != nil {
			return nil, err
		}
		units = append(units, xpkg)
	}
	return units, nil
}

// LoadDir type-checks a directory outside the module's package space —
// an analysistest fixture under some testdata/src/<name>. Imports of
// module packages and the standard library both resolve normally.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	files, err := l.parseDir(dir, func(name, pkgName string) bool {
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return l.check(files[0].Name.Name, dir, files)
}

func matchXTest(base string) func(fileName, pkgName string) bool {
	return func(fileName, pkgName string) bool {
		return strings.HasSuffix(fileName, "_test.go") && pkgName == base+"_test"
	}
}

// checkDir type-checks the production files of dir (plus in-package
// test files when tests is set) as importPath.
func (l *Loader) checkDir(dir, importPath string, tests bool) (*Package, error) {
	files, err := l.parseDir(dir, func(fileName, pkgName string) bool {
		if strings.HasSuffix(fileName, "_test.go") {
			return tests && !strings.HasSuffix(pkgName, "_test")
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return l.check(importPath, dir, files)
}

func (l *Loader) parseDir(dir string, keep func(fileName, pkgName string) bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if keep(name, f.Name.Name) {
			files = append(files, f)
		}
	}
	return files, nil
}

func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
