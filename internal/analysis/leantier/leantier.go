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
		"trace but take no *sim.Trace: the Execution forms sim.Conforms,\n" +
		"omission.Validate and adversary.Extract, and the Behavior message\n" +
		"accessors Frag, AllSent, AllSendOmitted and AllReceiveOmitted.",
	Run: run,
}

// sinks are the full-trace-only APIs that take no *sim.Trace: the three
// Execution forms bench/ calls, which refuse a lean execution, and the
// Behavior message accessors, which read one as empty. Behavior.Counts
// and Execution.CorrectMessages are absent: they read message counts,
// which both tiers record.
var sinks = map[string]bool{
	"expensive/internal/sim.Conforms":                      true,
	"expensive/internal/omission.Validate":                 true,
	"expensive/internal/adversary.Extract":                 true,
	"(*expensive/internal/sim.Behavior).AllSent":           true,
	"(*expensive/internal/sim.Behavior).AllSendOmitted":    true,
	"(*expensive/internal/sim.Behavior).AllReceiveOmitted": true,
	"(*expensive/internal/sim.Behavior).Frag":              true,
}

const (
	simPath  = "expensive/internal/sim"
	leanName = "RecordDecisions"
)

func run(pass *analysis.Pass) error {
	g := callgraph.Of(pass.Program)
	reach := g.ReachableFrom("leantier", mentionsLean, isSinkNode)
	info := pass.Pkg.Info
	for _, n := range g.Funcs(pass.Pkg) {
		if !reach[n] || isSinkNode(n) {
			// Sink bodies themselves already reject lean at runtime;
			// diving into them would flood their internals.
			continue
		}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
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
	return nil
}

// isSinkNode is the stop set: reachability does not expand through a
// sink.
func isSinkNode(n *callgraph.Node) bool {
	return n.Func != nil && sinks[n.Func.FullName()]
}

// mentionsLean reports whether n's body mentions the sim.RecordDecisions
// constant: the roots are the lean probe loops.
func mentionsLean(n *callgraph.Node) bool {
	found := false
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			obj := n.Pkg.Info.Uses[id]
			found = obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == simPath &&
				obj.Pkg().Scope().Lookup(leanName) == obj
		}
		return !found
	})
	return found
}
