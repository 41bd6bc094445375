// Package analysis is the repo's static-analysis core: a minimal,
// stdlib-only re-implementation of the golang.org/x/tools/go/analysis
// vocabulary — Analyzer, Pass, Diagnostic — plus a whole-program loader
// and the `//balint:allow` suppression mechanism the balint suite
// (cmd/balint, internal/analysis/*) is built on.
//
// Why not golang.org/x/tools itself: this module is dependency-free and
// builds offline, and the contracts balint enforces (map-iteration
// determinism on report paths, lean-tier API discipline) are
// whole-program reachability properties. x/tools' unitchecker protocol
// analyzes one package at a time with fact propagation; loading the
// entire module into a single type universe (go/parser + go/types with
// the stdlib source importer) makes the call-graph analyzers both
// simpler and stronger. The API shape deliberately mirrors x/tools so
// analyzers could be ported onto the real framework if the dependency
// ever lands.
//
// Suppression: a diagnostic is silenced by a comment of the form
//
//	//balint:allow <analyzer> <reason>
//
// on the flagged line (trailing) or on the line directly above it. The
// reason is mandatory and the directive silences exactly the named
// analyzer; a malformed directive (missing reason, unknown analyzer) is
// itself reported as an unsuppressable "balint" diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a package in the context of the whole
// loaded program. The first line of Doc is the one-line summary listing
// UIs print (`balint -list`, `baexp lint -list`).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Summary returns the first line of Doc.
func (a *Analyzer) Summary() string {
	for i := 0; i < len(a.Doc); i++ {
		if a.Doc[i] == '\n' {
			return a.Doc[:i]
		}
	}
	return a.Doc
}

// Diagnostic is one reported finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks diagnostics silenced by a //balint:allow
	// directive; Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package of the program.
type Package struct {
	// Path is the import path ("expensive/internal/sim").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
	// directives are the parsed //balint: comments, per file line.
	directives []directive
}

// Program is the whole loaded module (or fixture workspace): every
// package shares one FileSet and one type universe, so types.Object
// identities are comparable across packages — what the call-graph
// analyzers rely on.
type Program struct {
	Fset *token.FileSet
	// Packages in import-path order.
	Packages []*Package
	byPath   map[string]*Package
	// Cache holds per-program computations shared across per-package
	// passes (the call graph with its reachability sets, taint engines),
	// keyed by the package that builds them.
	Cache map[string]any
}

// Package returns the loaded package with the given import path.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Program  *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Program.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e in this package, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// FuncObject resolves the *types.Func a call or reference expression
// statically targets: a plain identifier, a package-qualified function,
// a method selection, or a method value. It returns nil for dynamic
// targets (function-typed variables and fields, interface values are
// still resolved to the interface method).
func FuncObject(info *types.Info, e ast.Expr) *types.Func {
	switch e := Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Run executes every analyzer over every package of the program,
// applies the //balint:allow suppressions, validates directives against
// knownNames (defaulting to the analyzers run), and returns all
// diagnostics — suppressed ones included, marked — sorted by position.
func Run(prog *Program, analyzers []*Analyzer, knownNames []string) ([]Diagnostic, error) {
	if knownNames == nil {
		for _, a := range analyzers {
			knownNames = append(knownNames, a.Name)
		}
	}
	known := make(map[string]bool, len(knownNames))
	for _, n := range knownNames {
		known[n] = true
	}

	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, d := range pkg.directives {
			if d.malformed != "" {
				diags = append(diags, Diagnostic{
					Pos:      d.pos,
					Analyzer: DirectiveAnalyzer,
					Message:  d.malformed,
				})
			} else if !known[d.analyzer] {
				diags = append(diags, Diagnostic{
					Pos:      d.pos,
					Analyzer: DirectiveAnalyzer,
					Message:  fmt.Sprintf("//balint:allow names unknown analyzer %q", d.analyzer),
				})
			}
		}
	}

	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{Analyzer: a, Program: prog, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	// Apply suppressions: a well-formed directive silences diagnostics of
	// its analyzer on its own line and on the line directly below.
	index := make(map[string]map[int]directive)
	for _, pkg := range prog.Packages {
		for _, d := range pkg.directives {
			if d.malformed != "" {
				continue
			}
			byLine := index[d.pos.Filename]
			if byLine == nil {
				byLine = make(map[int]directive)
				index[d.pos.Filename] = byLine
			}
			byLine[d.pos.Line] = d
		}
	}
	for i := range diags {
		dg := &diags[i]
		if dg.Analyzer == DirectiveAnalyzer {
			continue // directive problems are never suppressable
		}
		byLine := index[dg.Pos.Filename]
		for _, line := range [2]int{dg.Pos.Line, dg.Pos.Line - 1} {
			if d, ok := byLine[line]; ok && d.analyzer == dg.Analyzer {
				dg.Suppressed = true
				dg.Reason = d.reason
				break
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		switch {
		case a.Pos.Filename != b.Pos.Filename:
			return a.Pos.Filename < b.Pos.Filename
		case a.Pos.Line != b.Pos.Line:
			return a.Pos.Line < b.Pos.Line
		case a.Pos.Column != b.Pos.Column:
			return a.Pos.Column < b.Pos.Column
		case a.Analyzer != b.Analyzer:
			return a.Analyzer < b.Analyzer
		default:
			return a.Message < b.Message
		}
	})
	return diags, nil
}

// Unparen strips parentheses around e. (ast.Unparen needs go1.22; the
// module language version is 1.21.)
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// Unsuppressed filters diags down to the findings that fail a lint run.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
