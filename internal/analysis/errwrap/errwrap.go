// Package errwrap enforces the sentinel-error discipline that the
// corruption-detection paths (codec.ErrCorrupt, codec.ErrChecksum, and
// every other module sentinel) depend on: sentinels reach callers
// through layers of fmt.Errorf wrapping, so only errors.Is can test
// them. Three anti-patterns break the chain and are flagged:
//
//  1. err == ErrX / err != ErrX identity comparison against a module
//     sentinel — false the moment anyone adds a %w layer;
//  2. fmt.Errorf("... %v ...", ErrX) — passing a sentinel without %w
//     severs the chain for every caller downstream;
//  3. string matching on error text: strings.Contains/HasPrefix/
//     HasSuffix over err.Error(), or comparing err.Error() to a
//     literal.
//
// Only sentinels defined inside this module trip rule 1: comparing
// io.EOF with == stays idiomatic stdlib usage.
package errwrap

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"crfs/internal/analysis"
)

// Analyzer is the errwrap check.
var Analyzer = &analysis.Analyzer{
	Name: "errwrap",
	Run:  run,
}

// ModulePrefixes names the import-path roots whose Err* sentinels are
// held to the errors.Is discipline, in addition to the analyzed
// package's own module. Standard-library sentinels (io.EOF) stay
// exempt: comparing them with == is stdlib-sanctioned idiom.
var ModulePrefixes = []string{"crfs"}

func run(pass *analysis.Pass) error {
	modulePrefix := moduleOf(pass.Pkg.Path())
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkComparison(pass, modulePrefix, n)
			case *ast.CallExpr:
				checkErrorfWrap(pass, modulePrefix, n)
				checkStringMatch(pass, n)
			}
			return true
		})
	}
	return nil
}

// moduleOf derives the module prefix from the package path; for this
// repo every package path starts with the module name.
func moduleOf(pkgPath string) string {
	if i := strings.Index(pkgPath, "/"); i >= 0 {
		return pkgPath[:i]
	}
	return pkgPath
}

// sentinelOf resolves an expression to a module-defined package-level
// error variable named Err*, or nil.
func sentinelOf(pass *analysis.Pass, modulePrefix string, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	inScope := false
	for _, prefix := range append([]string{modulePrefix}, ModulePrefixes...) {
		if v.Pkg().Path() == prefix || strings.HasPrefix(v.Pkg().Path(), prefix+"/") {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	// Package-level only: the var's parent scope is the package scope.
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

func isErrorType(t types.Type) bool {
	return t.String() == "error"
}

func checkComparison(pass *analysis.Pass, modulePrefix string, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	for _, side := range [2]ast.Expr{be.X, be.Y} {
		if v := sentinelOf(pass, modulePrefix, side); v != nil {
			pass.Reportf(be.OpPos,
				"sentinel %s compared with %s: wrapped errors never match identity, use errors.Is",
				v.Name(), be.Op)
			return
		}
	}
	// err.Error() == "..." — rule 3's comparison form.
	for _, side := range [2]ast.Expr{be.X, be.Y} {
		if isErrorTextCall(pass, side) {
			pass.Reportf(be.OpPos,
				"comparing err.Error() text: brittle against wrapping, use errors.Is or errors.As")
			return
		}
	}
}

// checkErrorfWrap flags fmt.Errorf calls that pass a module sentinel
// under a non-wrapping verb.
func checkErrorfWrap(pass *analysis.Pass, modulePrefix string, call *ast.CallExpr) {
	if !isPkgFunc(pass, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs := formatVerbs(format)
	for i, arg := range call.Args[1:] {
		v := sentinelOf(pass, modulePrefix, arg)
		if v == nil {
			continue
		}
		if i < len(verbs) && verbs[i] != 'w' {
			pass.Reportf(arg.Pos(),
				"sentinel %s passed to fmt.Errorf with %%%c: use %%w so errors.Is still matches downstream",
				v.Name(), verbs[i])
		}
	}
}

// formatVerbs extracts the verb letter of each argument-consuming verb
// in a format string (flags and width/precision skipped, %% ignored).
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) && strings.ContainsRune("+-# 0123456789.*", rune(format[i])) {
			i++
		}
		if i >= len(format) || format[i] == '%' {
			continue
		}
		verbs = append(verbs, format[i])
	}
	return verbs
}

// checkStringMatch flags strings.Contains/HasPrefix/HasSuffix applied to
// err.Error() output.
func checkStringMatch(pass *analysis.Pass, call *ast.CallExpr) {
	for _, fn := range [...]string{"Contains", "HasPrefix", "HasSuffix", "EqualFold", "Index"} {
		if isPkgFunc(pass, call, "strings", fn) {
			for _, arg := range call.Args {
				if isErrorTextCall(pass, arg) {
					pass.Reportf(call.Pos(),
						"strings.%s over err.Error(): error identity must use errors.Is, not text matching", fn)
					return
				}
			}
		}
	}
}

// isErrorTextCall reports whether e is a call of Error() on an error
// value.
func isErrorTextCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	return ok && isErrorType(tv.Type)
}

func isPkgFunc(pass *analysis.Pass, call *ast.CallExpr, pkg, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkg
}
