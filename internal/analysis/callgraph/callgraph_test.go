package callgraph_test

import (
	"go/types"
	"testing"

	"expensive/internal/analysis"
	"expensive/internal/analysis/callgraph"
)

func loadCG(t *testing.T) (*callgraph.Graph, *analysis.Package) {
	t.Helper()
	prog, err := analysis.LoadTree("testdata/src")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	pkg := prog.Package("cg")
	if pkg == nil {
		t.Fatal("fixture package cg not loaded")
	}
	return callgraph.Of(prog), pkg
}

func funcOf(t *testing.T, pkg *analysis.Package, name string) *types.Func {
	t.Helper()
	fn, _ := pkg.Types.Scope().Lookup(name).(*types.Func)
	if fn == nil {
		t.Fatalf("function %s not found in cg", name)
	}
	return fn
}

func methodOf(t *testing.T, pkg *analysis.Package, typeName, method string) *types.Func {
	t.Helper()
	tn, _ := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
	if tn == nil {
		t.Fatalf("type %s not found in cg", typeName)
	}
	named, _ := tn.Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == method {
			return m
		}
	}
	t.Fatalf("method %s.%s not found", typeName, method)
	return nil
}

func calleeNames(n *callgraph.Node) map[string]bool {
	out := map[string]bool{}
	for _, c := range n.Callees {
		out[c.Name()] = true
	}
	return out
}

// TestEdgeKinds checks that Use gains edges for a method value, a
// function stored into a function-typed field, and an interface call
// expanded to its concrete implementation — none of which are direct
// calls — and a call edge for the target of a go statement.
func TestEdgeKinds(t *testing.T) {
	g, pkg := loadCG(t)
	use := g.Node(funcOf(t, pkg, "Use"))
	if use == nil {
		t.Fatal("no node for cg.Use")
	}
	names := calleeNames(use)
	for _, want := range []string{
		"cg.target",     // via Pool{fold: target}
		"(cg.T).Method", // via the method value t.Method
		"(cg.Impl).Run", // via interface dispatch on Runner
		"cg.spawned",    // via go spawned()
	} {
		if !names[want] {
			t.Errorf("Use is missing callee %s (got %v)", want, names)
		}
	}
	if names["cg.Isolated"] {
		t.Error("Use must not reach cg.Isolated")
	}
}

// TestReachable checks transitive reachability — Use reaches helper
// only through the interface-dispatched (Impl).Run — and that the stop
// predicate includes the stopping node but prunes what lies behind it.
func TestReachable(t *testing.T) {
	g, pkg := loadCG(t)
	use := g.Node(funcOf(t, pkg, "Use"))
	run := g.Node(methodOf(t, pkg, "Impl", "Run"))
	helper := g.Node(funcOf(t, pkg, "helper"))
	isolated := g.Node(funcOf(t, pkg, "Isolated"))
	if use == nil || run == nil || helper == nil || isolated == nil {
		t.Fatal("missing graph nodes for fixture functions")
	}

	reach := g.Reachable([]*callgraph.Node{use}, nil)
	if !reach[helper] {
		t.Error("helper should be reachable from Use via (Impl).Run")
	}
	if reach[isolated] {
		t.Error("Isolated must not be reachable from Use")
	}

	pruned := g.Reachable([]*callgraph.Node{use}, func(n *callgraph.Node) bool { return n == run })
	if !pruned[run] {
		t.Error("the stopping node itself should be included")
	}
	if pruned[helper] {
		t.Error("helper lies behind the stop node and must be pruned")
	}
}

// TestImplementations checks the exported interface-dispatch map: the
// Runner.Run interface method expands to (Impl).Run.
func TestImplementations(t *testing.T) {
	g, pkg := loadCG(t)
	tn, _ := pkg.Types.Scope().Lookup("Runner").(*types.TypeName)
	if tn == nil {
		t.Fatal("type Runner not found")
	}
	iface := tn.Type().Underlying().(*types.Interface)
	impls := g.Implementations(iface.Method(0))
	names := map[string]bool{}
	for _, f := range impls {
		names[f.FullName()] = true
	}
	if !names["(cg.Impl).Run"] {
		t.Errorf("Runner.Run should expand to (cg.Impl).Run, got %v", names)
	}
}
