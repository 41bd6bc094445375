// Package maporder implements the balint analyzer that flags `range`
// over map types in functions reachable from JSON-encoding, report-fold
// or corpus-save call paths. Go randomizes map iteration order, so one
// unsorted range in a fold silently breaks the byte-identical
// serial-vs-parallel report diffs the CI determinism gates rely on.
//
// A map range is clean when it only collects keys or values into slices
// that are sorted later in the same statement list (the repo's canonical
// collect-append-sort idiom), e.g.:
//
//	for v := range set {
//		keys = append(keys, v)
//	}
//	sort.Strings(keys)
package maporder

import (
	"go/ast"
	"go/types"

	"expensive/internal/analysis"
	"expensive/internal/analysis/callgraph"
)

// Analyzer is the maporder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flags map ranges on report/corpus encoding paths unless keys are sorted first\n\n" +
		"Map iteration order is randomized; any range over a map in a function\n" +
		"reachable from a JSON-encoding call path must collect and sort keys\n" +
		"before iterating, or the bytes of reports and corpora stop being\n" +
		"deterministic across runs and parallelism levels.",
	Run: run,
}

// encoders are the JSON entry points whose callers anchor report paths.
var encoders = map[string]bool{
	"encoding/json.Marshal":           true,
	"encoding/json.MarshalIndent":     true,
	"(*encoding/json.Encoder).Encode": true,
}

// sorters make a collected slice deterministic again: sorting functions
// plus the repo's canonicalizing constructors (a proc.Set is a bitset,
// so NewSet is insertion-order-independent).
var sorters = map[string]bool{
	"sort.Strings":                   true,
	"sort.Ints":                      true,
	"sort.Float64s":                  true,
	"sort.Slice":                     true,
	"sort.SliceStable":               true,
	"sort.Sort":                      true,
	"sort.Stable":                    true,
	"slices.Sort":                    true,
	"slices.SortFunc":                true,
	"slices.SortStableFunc":          true,
	"expensive/internal/msg.Sort":    true,
	"expensive/internal/proc.NewSet": true,
}

func run(pass *analysis.Pass) error {
	g := callgraph.Of(pass.Program)
	reach := g.ReachableFrom("maporder", callsEncoder, nil)
	for _, n := range g.Funcs(pass.Pkg) {
		if reach[n] {
			checkFunc(pass, n.Decl)
		}
	}
	return nil
}

// callsEncoder reports whether n calls a JSON encoder: the roots of the
// report paths.
func callsEncoder(n *callgraph.Node) bool {
	found := false
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.FuncObject(n.Pkg.Info, call.Fun); fn != nil && encoders[fn.FullName()] {
			found = true
		}
		return !found
	})
	return found
}

// checkFunc flags non-exempt map ranges in one function body.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Walk every statement list so a range can be matched against the
	// statements that follow it in its own block.
	var walkList func(list []ast.Stmt)
	var walkStmt func(s ast.Stmt, rest []ast.Stmt)
	walkList = func(list []ast.Stmt) {
		for i, s := range list {
			walkStmt(s, list[i+1:])
		}
	}
	walkStmt = func(s ast.Stmt, rest []ast.Stmt) {
		switch s := s.(type) {
		case *ast.RangeStmt:
			if isMapType(pass.TypeOf(s.X)) && !sortedCollect(pass, s, rest) {
				pass.Reportf(s.For,
					"range over map %s on a report-encoding path: iteration order is nondeterministic; collect and sort keys first",
					types.TypeString(pass.TypeOf(s.X), types.RelativeTo(pass.Pkg.Types)))
			}
			walkList(s.Body.List)
		case *ast.BlockStmt:
			walkList(s.List)
		case *ast.IfStmt:
			walkList(s.Body.List)
			if s.Else != nil {
				walkStmt(s.Else, nil)
			}
		case *ast.ForStmt:
			walkList(s.Body.List)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkList(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkList(cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkList(cc.Body)
				}
			}
		case *ast.LabeledStmt:
			walkStmt(s.Stmt, rest)
		case *ast.GoStmt, *ast.DeferStmt, *ast.ExprStmt, *ast.AssignStmt, *ast.DeclStmt, *ast.ReturnStmt:
			// Function literals inside these get their own FuncDecl-less
			// bodies; ranges inside them belong to the enclosing function's
			// flattened node, so walk them too.
			ast.Inspect(s, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					walkList(fl.Body.List)
					return false
				}
				return true
			})
		}
	}
	walkList(fd.Body.List)
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// dest identifies an append destination: a plain variable, or a field
// selection on a variable (h.Buckets).
type dest struct {
	base  types.Object
	field types.Object // nil for a plain variable
}

// destOf resolves an expression to a destination key.
func destOf(info *types.Info, e ast.Expr) (dest, bool) {
	switch e := analysis.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return dest{base: obj}, true
		}
	case *ast.SelectorExpr:
		base, ok := analysis.Unparen(e.X).(*ast.Ident)
		if !ok {
			return dest{}, false
		}
		obj, field := info.Uses[base], info.Uses[e.Sel]
		if obj != nil && field != nil {
			return dest{base: obj, field: field}, true
		}
	}
	return dest{}, false
}

// sortedCollect reports whether the range body only appends to slices
// that are sorted by a later statement in the same list.
func sortedCollect(pass *analysis.Pass, rng *ast.RangeStmt, rest []ast.Stmt) bool {
	info := pass.Pkg.Info
	dests := map[dest]bool{}
	for _, s := range rng.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := destOf(info, as.Lhs[0])
		if !ok {
			return false
		}
		call, ok := analysis.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return false
		}
		fun, ok := analysis.Unparen(call.Fun).(*ast.Ident)
		if !ok || fun.Name != "append" {
			return false
		}
		if b, ok := info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
			return false
		}
		first, ok := destOf(info, call.Args[0])
		if !ok || first != lhs {
			return false
		}
		dests[lhs] = true
	}
	if len(dests) == 0 {
		return false
	}
	// Every destination must be handed to a sorter later in this block.
	sorted := map[dest]bool{}
	for _, s := range rest {
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.FuncObject(info, call.Fun)
			if fn == nil || !sorters[fn.FullName()] {
				return true
			}
			for _, arg := range call.Args {
				if d, ok := destOf(info, arg); ok && dests[d] {
					sorted[d] = true
				}
			}
			return true
		})
	}
	for d := range dests {
		if !sorted[d] {
			return false
		}
	}
	return true
}
