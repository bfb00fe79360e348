// Package analysis is the repo's in-tree static-analysis framework:
// a deliberately small subset of the golang.org/x/tools go/analysis
// API built on nothing but the standard library's go/ast, go/parser,
// go/types and go/importer, so `make lint` keeps working on a bare
// toolchain with no network (the same zero-install contract as
// cmd/doccheck and cmd/linkcheck).
//
// The framework exists to push the repo's determinism and hot-path
// contracts — today enforced only dynamically, by byte-compare CI
// gates and allocation-budget tests — into the compiler front-end,
// where they cover every code path at once instead of only the paths
// a scenario happens to exercise. The six contract checks themselves
// live in internal/analysis/detcheck; the cmd/detlint multichecker
// drives them over the module.
//
// An Analyzer receives one type-checked package at a time as a Pass
// and reports Diagnostics. Findings can be suppressed, one line at a
// time, with an annotation comment:
//
//	//detlint:allow <check> <reason>
//
// which silences diagnostics of <check> on the annotation's own line
// and on the line directly below it. The reason is mandatory — every
// exception to a contract is itself a documented contract — and both
// malformed annotations (unknown check name, missing reason) and
// annotations that suppress nothing are diagnostics in their own
// right, so the set of escapes in the tree can never rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named static check. Run inspects a single
// type-checked package through its Pass and reports findings via
// pass.Report; it returns an error only for internal failures
// (findings are diagnostics, not errors).
type Analyzer struct {
	// Name is the check's identifier — the word that appears in
	// diagnostics and in //detlint:allow annotations.
	Name string
	// Doc is a one-paragraph description of the contract the check
	// enforces, shown by `detlint -help`.
	Doc string
	// Run executes the check on one package.
	Run func(pass *Pass) error
}

// Pass carries everything an Analyzer may inspect about one package:
// the syntax trees, the type information, and the package metadata.
// A Pass is valid only for the duration of one Run call.
type Pass struct {
	// Analyzer is the check this pass is running.
	Analyzer *Analyzer
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Files holds the parsed non-test source files of the package.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// TypesInfo records the type-checker's findings (uses, defs,
	// expression types and selections) for the package's files.
	TypesInfo *types.Info
	// Path is the package's import path as reported by the loader.
	// Analyzers scope themselves by this path, not by directory.
	Path string

	report func(Diagnostic)
}

// Report records one finding. The position must come from an
// expression inside this pass's files.
func (p *Pass) Report(d Diagnostic) {
	if d.Check == "" {
		d.Check = p.Analyzer.Name
	}
	p.report(d)
}

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position, the check that produced it,
// and a human-readable message stating which contract is violated.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Check names the analyzer (or the framework pseudo-check
	// "detlint" for annotation-hygiene findings).
	Check string
	// Message states the violated contract and, where useful, the fix.
	Message string
}

// Finding is a resolved diagnostic: a Diagnostic plus its printable
// position, produced by Run after suppression filtering.
type Finding struct {
	// Position is the resolved file:line:column of the finding.
	Position token.Position
	// Check names the analyzer that produced the finding.
	Check string
	// Message states the violated contract.
	Message string
}

// String formats the finding in the conventional
// file:line:col: check: message shape understood by editors.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Position.Filename, f.Position.Line, f.Position.Column, f.Check, f.Message)
}
