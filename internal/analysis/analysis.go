// Package analysis is the static-analysis layer of the repository: a
// standard-library reimplementation of the core vocabulary of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic), plus
// the project-specific analyzers that turn the engine's documented
// contracts into machine-checked law. The x/tools module is not a
// dependency of this repository — the module is dependency-free by
// policy — so the familiar shapes are mirrored here with identical
// field names; migrating an analyzer onto the real go/analysis API is
// a mechanical import swap.
//
// The suite is driven by cmd/radivvet (a multichecker over ./...) and
// by per-analyzer analysistest fixtures under each analyzer's
// testdata directory. See doc.go in this package for the contracts
// the analyzers enforce and run.go for the suppression directive
// grammar.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name (also the key of the
// //radivvet:ignore directive), documentation, and the per-package
// entry point.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives. It
	// must be a valid identifier.
	Name string
	// Doc is the analyzer's documentation: one summary line, a blank
	// line, then details.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report. The returned error aborts the whole run —
	// reserve it for internal failures, not findings.
	Run func(pass *Pass) error
}

// Pass is one (analyzer, package) unit of work: the package's syntax
// and type information plus the diagnostic sink.
type Pass struct {
	// Analyzer is the check being applied.
	Analyzer *Analyzer
	// Fset maps token positions of Files to file/line/column.
	Fset *token.FileSet
	// Files is the package's parsed syntax, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's facts about Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
