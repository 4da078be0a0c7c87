package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file builds the static call graph behind the interprocedural
// passes. Nodes are the function declarations of every package loaded
// into the Module; edges come from three reference forms:
//
//   - direct calls and method calls resolved through go/types
//     (including calls reached only as method values or function values
//     passed around — any mention of a function is a potential call);
//   - dynamic calls through interface methods, resolved
//     class-hierarchy style: a call to iface.M dispatches to every
//     concrete method in the module named M with an identical
//     signature;
//   - function literals, which are analyzed as part of their enclosing
//     declaration (a closure created in a hot function is assumed to
//     run in hot context).
//
// Functions are keyed by their fully qualified name, which is also the
// deterministic order hot functions are reported in; interface dispatch
// matches concrete methods by name and the full-path spelling of their
// signature.
//
// Hot roots are declared in the code itself with a
//
//	//reprolint:hotpath [reason...]
//
// directive in the function's doc comment; everything statically
// reachable from a root is hot.

// funcNode is one declared function or method in the module.
type funcNode struct {
	full    string // qualified name, e.g. (*repro/internal/profile.Profiler).Branch
	display string // shortened for messages, e.g. (*profile.Profiler).Branch
	pkg     *Package
	decl    *ast.FuncDecl

	staticCalls  []string // full names of referenced functions
	dynamicCalls []string // name+signature keys of interface method calls

	root bool
	hot  bool
	via  string // display name of the root that first reached this node
}

// callGraph is the module-wide static call graph.
type callGraph struct {
	nodes   map[string]*funcNode
	methods map[string][]*funcNode // concrete methods by name+signature key
	roots   []*funcNode
}

// CallGraph builds (once) and returns the module's call graph with hot
// reachability resolved.
func (m *Module) CallGraph() *callGraph {
	if m.graph == nil {
		m.graph = buildCallGraph(m)
	}
	return m.graph
}

// HotFunctions returns the hot-reachable nodes ordered by qualified
// name, for deterministic reporting.
func (g *callGraph) HotFunctions() []*funcNode {
	var out []*funcNode
	for _, n := range g.nodes {
		if n.hot {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].full < out[j].full })
	return out
}

func buildCallGraph(m *Module) *callGraph {
	g := &callGraph{
		nodes:   make(map[string]*funcNode),
		methods: make(map[string][]*funcNode),
	}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{
					full:    fn.FullName(),
					display: shortFuncName(fn.FullName()),
					pkg:     pkg,
					decl:    decl,
					root:    isHotRoot(decl),
				}
				g.nodes[n.full] = n
				if decl.Recv != nil {
					key := sigKey(fn)
					g.methods[key] = append(g.methods[key], n)
				}
				collectEdges(pkg, decl, n)
			}
		}
	}
	// Deterministic dispatch order within one signature key.
	for _, impls := range g.methods {
		sort.Slice(impls, func(i, j int) bool { return impls[i].full < impls[j].full })
	}
	g.markHot()
	return g
}

// collectEdges records every function referenced inside decl's body.
func collectEdges(pkg *Package, decl *ast.FuncDecl, n *funcNode) {
	seenStatic := make(map[string]bool)
	seenDyn := make(map[string]bool)
	ast.Inspect(decl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			key := sigKey(fn)
			if !seenDyn[key] {
				seenDyn[key] = true
				n.dynamicCalls = append(n.dynamicCalls, key)
			}
			return true
		}
		full := fn.FullName()
		if !seenStatic[full] {
			seenStatic[full] = true
			n.staticCalls = append(n.staticCalls, full)
		}
		return true
	})
	sort.Strings(n.staticCalls)
	sort.Strings(n.dynamicCalls)
}

// markHot floods hotness from the annotated roots.
func (g *callGraph) markHot() {
	for _, n := range g.nodes {
		if n.root {
			g.roots = append(g.roots, n)
		}
	}
	sort.Slice(g.roots, func(i, j int) bool { return g.roots[i].full < g.roots[j].full })
	for _, root := range g.roots {
		var queue []*funcNode
		if !root.hot {
			root.hot = true
			root.via = root.display
			queue = append(queue, root)
		}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, t := range g.targets(n) {
				if !t.hot {
					t.hot = true
					t.via = root.display
					queue = append(queue, t)
				}
			}
		}
	}
}

// targets resolves n's outgoing edges to nodes, dynamic dispatch
// included.
func (g *callGraph) targets(n *funcNode) []*funcNode {
	var out []*funcNode
	for _, full := range n.staticCalls {
		if t := g.nodes[full]; t != nil {
			out = append(out, t)
		}
	}
	for _, key := range n.dynamicCalls {
		out = append(out, g.methods[key]...)
	}
	return out
}

// isHotRoot reports whether decl's doc comment carries the
// //reprolint:hotpath directive.
func isHotRoot(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(c.Text, "//reprolint:hotpath") {
			return true
		}
	}
	return false
}

// sigKey identifies a method for dynamic dispatch: name plus the
// full-path spelling of parameter and result types. Receivers are
// excluded, so an interface method and its implementations share a key.
func sigKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(fn.Name())
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), nil))
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), nil))
	}
	b.WriteByte(')')
	return b.String()
}

// shortFuncName compresses full package paths in a qualified function
// name to bare package names: (*repro/internal/profile.Profiler).Branch
// becomes (*profile.Profiler).Branch.
func shortFuncName(full string) string {
	i := strings.LastIndex(full, "/")
	if i < 0 {
		return full
	}
	j := 0
	for j < len(full) && (full[j] == '(' || full[j] == '*') {
		j++
	}
	return full[:j] + full[i+1:]
}
