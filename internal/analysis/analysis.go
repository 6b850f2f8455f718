// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, built on the standard
// library's go/parser and go/types only. It exists because the crfsvet
// analyzers (the sibling packages lockorder and errwrap, driven over the
// module by suite.TestModuleInvariants) must run in hermetic build
// environments where the x/tools module is unavailable.
//
// The shape mirrors x/tools deliberately — an Analyzer owns a Run
// function that receives a Pass with the package's syntax trees and type
// information and reports position-anchored diagnostics — so the
// analyzers can migrate to the real framework (and to `go vet
// -vettool=`) without rewriting their logic.
//
// Suppression: a diagnostic is waived, never silenced, by an inline
// directive on the flagged line or the line directly above it:
//
//	//crfsvet:ignore <reason>
//
// The reason is mandatory; a bare directive is itself a diagnostic.
// Waived findings stay in the result set with Suppressed=true so the
// driver can count and print them — waivers are visible, never silent.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant check. Name appears in diagnostic
// output and must be a valid identifier.
type Analyzer struct {
	Name string

	// SkipTestFiles drops diagnostics positioned in _test.go files.
	// Checks that constrain production concurrency structure (lock
	// order, goroutine spawns) set this: tests legitimately spawn
	// goroutines and take locks in hostile orders on purpose.
	SkipTestFiles bool

	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package unit.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos. Suppression directives are
// applied later by the runner, not here.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string

	// Suppressed marks a finding waived by a //crfsvet:ignore
	// directive; Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}
