// Package callgraph builds the static over-approximate call graph the
// balint reachability analyzers (maporder, leantier) share. It is a
// class-hierarchy-style analysis over one whole-program type universe:
//
//   - direct calls and method calls add call edges;
//   - any other use of a function — a method value, assignment into a
//     function-typed field or variable, passing a callback — adds a
//     reference edge, so functions handed to runner pools or stored in
//     fold structs stay reachable from whoever took the reference;
//   - a call through an interface method adds edges to that method on
//     every concrete type in the program implementing the interface;
//   - function literals are flattened into their enclosing named
//     function (or the package's init context for package-level vars).
//
// Over-approximation is the right polarity here: the analyzers forbid
// things on report/probe paths, so spurious edges can only make the
// suite stricter, never let a real offender through.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"

	"expensive/internal/analysis"
)

// Node is one function in the graph. Named functions and methods map to
// their *types.Func; each package's init context (init funcs plus
// package-level variable initializers) is a synthetic node.
type Node struct {
	// Func is nil for the synthetic package-init node.
	Func *types.Func
	// Pkg is the package the body lives in.
	Pkg *analysis.Package
	// Decl is the enclosing declaration: *ast.FuncDecl, or nil for the
	// init context.
	Decl *ast.FuncDecl
	// Callees are the outgoing edges (calls and references), deduplicated,
	// in deterministic order.
	Callees []*Node
}

// Name renders the node for diagnostics: the types.Func FullName, or
// "<init:pkgpath>" for an init context.
func (n *Node) Name() string {
	if n.Func != nil {
		return n.Func.FullName()
	}
	return "<init:" + n.Pkg.Path + ">"
}

// Graph is the program-wide call graph.
type Graph struct {
	prog  *analysis.Program
	nodes map[*types.Func]*Node
	inits map[*analysis.Package]*Node
	// impls maps each interface method in the program to the concrete
	// methods that may stand behind it.
	impls map[*types.Func][]*types.Func
}

const cacheKey = "callgraph"

// Of returns the call graph of prog, building it on first use and
// caching it on the program.
func Of(prog *analysis.Program) *Graph {
	if g, ok := prog.Cache[cacheKey].(*Graph); ok {
		return g
	}
	g := build(prog)
	prog.Cache[cacheKey] = g
	return g
}

// Node returns the graph node of fn, or nil if fn has no body in the
// program (stdlib, interface methods).
func (g *Graph) Node(fn *types.Func) *Node { return g.nodes[fn] }

// InitNode returns the synthetic node covering pkg's init funcs and
// package-level variable initializers.
func (g *Graph) InitNode(pkg *analysis.Package) *Node { return g.inits[pkg] }

// Implementations returns the concrete program methods that may stand
// behind fn when fn is an interface method without a body, in
// deterministic order; nil for concrete functions. Dataflow analyzers
// use this to widen through interface calls the same way edge does.
func (g *Graph) Implementations(fn *types.Func) []*types.Func { return g.impls[fn] }

// Reachable walks the graph from roots and returns every node reachable
// from them, roots included. stop, if non-nil, prunes traversal: a node
// for which stop returns true is included but its callees are not
// followed (used by leantier, which must not dive through APIs that
// already reject lean traces at runtime).
func (g *Graph) Reachable(roots []*Node, stop func(*Node) bool) map[*Node]bool {
	seen := make(map[*Node]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		if stop != nil && stop(n) {
			return
		}
		for _, c := range n.Callees {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return seen
}

func build(prog *analysis.Program) *Graph {
	g := &Graph{
		prog:  prog,
		nodes: map[*types.Func]*Node{},
		inits: map[*analysis.Package]*Node{},
	}

	// Pass 1: a node per declared function/method, plus one init node per
	// package; collect the program's concrete method sets for interface
	// dispatch resolution.
	var concrete []types.Type
	for _, pkg := range prog.Packages {
		g.inits[pkg] = &Node{Pkg: pkg}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				concrete = append(concrete, tn.Type())
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				g.nodes[fn] = &Node{Func: fn, Pkg: pkg, Decl: fd}
			}
		}
	}
	g.impls = implementations(g, concrete)

	// Pass 2: edges. Function literals contribute to the node of the
	// function (or init context) whose declaration encloses them.
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if node := g.nodes[fn]; node != nil && d.Body != nil {
						g.addEdges(node, pkg, d.Body)
					}
				case *ast.GenDecl:
					// Package-level var initializers run at init time.
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, v := range vs.Values {
								g.addEdges(g.inits[pkg], pkg, v)
							}
						}
					}
				}
			}
		}
	}

	// init funcs fold into the init node: merge their callees.
	for _, pkg := range prog.Packages {
		initNode := g.inits[pkg]
		for fn, node := range g.nodes {
			if fn.Name() == "init" && fn.Pkg() == pkg.Types && fn.Type().(*types.Signature).Recv() == nil {
				initNode.Callees = append(initNode.Callees, node)
			}
		}
	}

	for _, n := range g.nodes {
		n.Callees = dedup(n.Callees)
	}
	for _, n := range g.inits {
		n.Callees = dedup(n.Callees)
	}
	return g
}

// addEdges scans one body (or initializer expression) and appends edges
// to from.
func (g *Graph) addEdges(from *Node, pkg *analysis.Package, root ast.Node) {
	info := pkg.Info
	// Call expressions get call edges; every *other* use of a function
	// identifier gets a reference edge. Track the Fun idents of calls so
	// the generic ident walk below skips them.
	callFuns := map[*ast.Ident]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := analysis.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callFuns[fun] = true
		case *ast.SelectorExpr:
			callFuns[fun.Sel] = true
		}
		fn := analysis.FuncObject(info, call.Fun)
		if fn == nil {
			return true
		}
		g.edge(from, fn)
		return true
	})
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callFuns[id] {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			// Method value, callback argument, function-typed field or
			// variable assignment: a reference edge.
			g.edge(from, fn)
		}
		return true
	})
}

// edge records from → fn, expanding interface methods to their concrete
// implementations.
func (g *Graph) edge(from *Node, fn *types.Func) {
	if to := g.nodes[fn]; to != nil {
		from.Callees = append(from.Callees, to)
		return
	}
	// No body in the program: either stdlib (ignore — the analyzers only
	// reason about module code) or an interface method — expand it.
	for _, impl := range g.impls[fn] {
		if to := g.nodes[impl]; to != nil {
			from.Callees = append(from.Callees, to)
		}
	}
}

// implementations maps every interface method used in the program to the
// concrete methods of program types that satisfy it.
func implementations(g *Graph, concrete []types.Type) map[*types.Func][]*types.Func {
	// Collect the interfaces declared anywhere in the program.
	var ifaces []*types.Interface
	for _, pkg := range g.prog.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces = append(ifaces, iface)
			}
		}
	}
	out := map[*types.Func][]*types.Func{}
	for _, iface := range ifaces {
		for _, t := range concrete {
			for _, typ := range []types.Type{t, types.NewPointer(t)} {
				if types.IsInterface(typ.Underlying()) || !types.Implements(typ, iface) {
					continue
				}
				ms := types.NewMethodSet(typ)
				for i := 0; i < iface.NumMethods(); i++ {
					im := iface.Method(i)
					sel := ms.Lookup(im.Pkg(), im.Name())
					if sel == nil {
						continue
					}
					if cm, ok := sel.Obj().(*types.Func); ok {
						out[im] = append(out[im], cm)
					}
				}
			}
		}
	}
	for im := range out {
		out[im] = dedupFuncs(out[im])
	}
	return out
}

func dedup(nodes []*Node) []*Node {
	seen := make(map[*Node]bool, len(nodes))
	out := nodes[:0]
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

func dedupFuncs(fns []*types.Func) []*types.Func {
	seen := make(map[*types.Func]bool, len(fns))
	out := fns[:0]
	for _, f := range fns {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}
