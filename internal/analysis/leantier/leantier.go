// Package leantier implements the balint analyzer that flags uses of
// full-trace-only APIs from code reachable from lean (RecordDecisions)
// probe loops, which record only decisions and message counts. Most such
// APIs take a *sim.Trace, which a lean execution cannot become; the sinks
// below are the rest, which refuse a lean execution or read it as empty
// only at run time, after a probe has burned.
package leantier

import (
	"go/ast"
	"go/types"

	"expensive/internal/analysis"
	"expensive/internal/analysis/callgraph"
)

// Analyzer is the leantier analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "leantier",
	Doc: "flags full-trace-only APIs reachable from RecordDecisions probe loops\n\n" +
		"Functions reachable from a lean-tier probe loop (one that mentions\n" +
		"sim.RecordDecisions) must not call APIs that need the full message\n" +
		"trace — sim.Conforms, omission.Validate, Behavior.AllSent and\n" +
		"friends — unless the call is tier-guarded and annotated.",
	Run: run,
}

// sinks are the full-trace-only APIs that take no *sim.Trace. Behavior.Frag
// and the All* slices are empty on lean traces; Conforms and Validate
// reject them outright. Behavior.Counts and Execution.CorrectMessages are
// absent: they read message counts, which both tiers record.
var sinks = map[string]bool{
	"expensive/internal/sim.Conforms":                      true,
	"expensive/internal/omission.Validate":                 true,
	"(*expensive/internal/sim.Behavior).AllSent":           true,
	"(*expensive/internal/sim.Behavior).AllSendOmitted":    true,
	"(*expensive/internal/sim.Behavior).AllReceiveOmitted": true,
	"(*expensive/internal/sim.Behavior).Frag":              true,
}

const (
	simPath  = "expensive/internal/sim"
	leanName = "RecordDecisions"
	reachKey = "leantier.reachable"
)

func run(pass *analysis.Pass) error {
	g := callgraph.Of(pass.Program)
	reach, ok := pass.Program.Cache[reachKey].(map[*callgraph.Node]bool)
	if !ok {
		reach = reachable(pass.Program, g)
		pass.Program.Cache[reachKey] = reach
	}

	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			node := g.Node(fn)
			if !reach[node] || isSinkNode(node) {
				// Sink bodies themselves already reject lean at runtime;
				// diving into them would flood their internals.
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if sfn, ok := info.Uses[id].(*types.Func); ok && sinks[sfn.FullName()] {
					pass.Reportf(id.Pos(),
						"%s needs the full message trace but is reachable from a RecordDecisions probe loop; guard on the recording tier or restructure",
						sfn.FullName())
				}
				return true
			})
		}
	}
	return nil
}

func isSinkNode(n *callgraph.Node) bool {
	return n != nil && n.Func != nil && sinks[n.Func.FullName()]
}

// reachable computes the functions reachable from lean probe roots —
// functions whose bodies mention the sim.RecordDecisions constant —
// without expanding through the sinks themselves.
func reachable(prog *analysis.Program, g *callgraph.Graph) map[*callgraph.Node]bool {
	var leanConst types.Object
	if sim := prog.Package(simPath); sim != nil {
		leanConst = sim.Types.Scope().Lookup(leanName)
	}
	if leanConst == nil {
		return map[*callgraph.Node]bool{}
	}
	var roots []*callgraph.Node
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if !mentions(pkg.Info, fd.Body, leanConst) {
					continue
				}
				if fn, _ := pkg.Info.Defs[fd.Name].(*types.Func); fn != nil {
					if n := g.Node(fn); n != nil {
						roots = append(roots, n)
					}
				}
			}
		}
	}
	return g.Reachable(roots, isSinkNode)
}

func mentions(info *types.Info, body ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
