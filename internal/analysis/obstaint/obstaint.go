// Package obstaint implements the balint analyzer that keeps telemetry
// a strict side channel: values derived from obs instruments or the
// wall-clock stopwatch — counter/gauge/histogram reads, recorder
// snapshots, timer stops, Stopwatch.Wall and everything wrapping it —
// must never flow into a JSON-encoded field of a report struct or into
// a json.Marshal argument inside the report-producing packages. The
// determinism oracle diffs reports byte-for-byte across parallelism and
// worker count; one telemetry-derived field on an encoded path breaks
// every campaign replay.
//
// Wall-clock stats that reports deliberately carry are excluded from
// encoding with json:"-" — those writes stay clean here because only
// encoded fields are sinks. No encoded sink is sanctioned: one that must
// carry a wall stat needs a //balint:allow obstaint with a reason.
package obstaint

import (
	"go/ast"
	"go/types"
	"strings"

	"expensive/internal/analysis"
	"expensive/internal/analysis/taint"
)

// Analyzer is the obstaint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "obstaint",
	Doc: "flags obs/stopwatch-derived values flowing into encoded report fields or json.Marshal\n\n" +
		"Telemetry is a side channel: counter/gauge/histogram reads and\n" +
		"stopwatch walls must not reach any JSON-encoded struct field or\n" +
		"marshal call in report-producing packages. Wall stats a report\n" +
		"carries must be json:\"-\".",
	Run: run,
}

// scopes are the report-producing package prefixes the sink rule covers.
// obs itself is out: its JSONL metrics stream is the sanctioned side
// channel. cmd is out: stderr rendering of telemetry is the point.
var scopes = []string{
	"expensive/internal/adversary",
	"expensive/internal/catalog/matrix",
	"expensive/internal/dist",
	"expensive/internal/experiments",
	"expensive/internal/lowerbound",
	"expensive/internal/omission",
	"expensive/internal/sim",
	"expensive/internal/smr",
	"expensive/internal/solve",
	"expensive/internal/transport",
}

// sources seed the taint engine: every read that turns an obs instrument
// or stopwatch into a plain value. Wrappers like Stopwatch.WallStats are
// caught by the engine's one-level summaries, not listed here.
var sources = map[string]bool{
	"(expensive/internal/experiments/runner.Stopwatch).Wall": true,
	"(*expensive/internal/obs.Counter).Value":                true,
	"(*expensive/internal/obs.Gauge).Value":                  true,
	"(*expensive/internal/obs.Histogram).Count":              true,
	"(*expensive/internal/obs.Histogram).Sum":                true,
	"(*expensive/internal/obs.Histogram).Quantile":           true,
	"(*expensive/internal/obs.Histogram).Buckets":            true,
	"(expensive/internal/obs.Timer).Stop":                    true,
	"(*expensive/internal/obs.Recorder).Uptime":              true,
	"(*expensive/internal/obs.Recorder).Snapshot":            true,
	"(*expensive/internal/obs.Sink).Events":                  true,
}

// marshalFuncs are the encoder entry points whose arguments are sinks.
var marshalFuncs = map[string]bool{
	"encoding/json.Marshal":           true,
	"encoding/json.MarshalIndent":     true,
	"(*encoding/json.Encoder).Encode": true,
}

func inScope(path string) bool {
	for _, s := range scopes {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path) {
		return nil
	}
	eng := taint.For(pass.Program, "obstaint", taint.Config{Sources: sources})
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			res := eng.Function(pass.Pkg, fd)
			checkBody(pass, info, fd.Body, res)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, info *types.Info, body ast.Node, res *taint.Result) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			tuple := len(s.Lhs) > 1 && len(s.Rhs) == 1
			for i, lhs := range s.Lhs {
				rhs := s.Rhs[0]
				if !tuple {
					if i >= len(s.Rhs) {
						continue
					}
					rhs = s.Rhs[i]
				}
				if res.Tainted(rhs) {
					checkFieldWrite(pass, info, lhs)
				}
			}
		case *ast.CompositeLit:
			checkLiteral(pass, info, s, res)
		case *ast.CallExpr:
			fn := analysis.FuncObject(info, s.Fun)
			if fn == nil || !marshalFuncs[fn.FullName()] {
				return true
			}
			for _, arg := range s.Args {
				if res.Tainted(arg) {
					pass.Reportf(arg.Pos(),
						"telemetry-derived value marshaled into a report: obs reads and stopwatch walls are a side channel, keep them out of %s",
						fn.FullName())
				}
			}
		}
		return true
	})
}

// checkFieldWrite flags lhs when it is an encoded field of a struct.
func checkFieldWrite(pass *analysis.Pass, info *types.Info, lhs ast.Expr) {
	sel, ok := analysis.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	v, ok := info.ObjectOf(sel.Sel).(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	named, st := structOf(info.TypeOf(sel.X))
	if st == nil {
		return
	}
	idx := fieldIndex(st, sel.Sel.Name)
	if idx < 0 || !taint.EncodedField(st, idx) {
		return
	}
	pass.Reportf(lhs.Pos(),
		"telemetry-derived value written to encoded field %s.%s: tag it json:\"-\"",
		shortName(named), sel.Sel.Name)
}

// checkLiteral flags tainted values placed in encoded fields of a
// struct composite literal.
func checkLiteral(pass *analysis.Pass, info *types.Info, lit *ast.CompositeLit, res *taint.Result) {
	named, st := structOf(info.TypeOf(lit))
	if st == nil {
		return
	}
	for i, elt := range lit.Elts {
		v := elt
		idx := i
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			v = kv.Value
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			idx = fieldIndex(st, key.Name)
		}
		if idx < 0 || idx >= st.NumFields() || !taint.EncodedField(st, idx) {
			continue
		}
		if !res.Tainted(v) {
			continue
		}
		pass.Reportf(v.Pos(),
			"telemetry-derived value written to encoded field %s.%s: tag it json:\"-\"",
			shortName(named), st.Field(idx).Name())
	}
}

// structOf unwraps pointers and names down to a struct underlying type.
func structOf(t types.Type) (*types.Named, *types.Struct) {
	if t == nil {
		return nil, nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	st, _ := t.Underlying().(*types.Struct)
	if st == nil {
		return nil, nil
	}
	return named, st
}

func fieldIndex(st *types.Struct, name string) int {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return i
		}
	}
	return -1
}

// typeName renders the fully qualified name; shortName is the
// last-path-element form used in messages.
func typeName(named *types.Named) string {
	if named == nil {
		return "struct"
	}
	if named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path() + "." + named.Obj().Name()
	}
	return named.Obj().Name()
}

func shortName(named *types.Named) string {
	full := typeName(named)
	if i := strings.LastIndex(full, "/"); i >= 0 {
		return full[i+1:]
	}
	return full
}
