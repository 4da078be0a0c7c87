package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkHotPath is the hotpath pass: hot-path hygiene, checked
// interprocedurally. Functions annotated //reprolint:hotpath are roots
// (the VM dispatch loop, the profiler's pair-increment scan, predictor
// update, trace sinks); everything reachable from a root through the
// module call graph — interface dispatch included — is hot. Inside a
// hot function the pass reports the constructs that silently erase an
// inner-loop win:
//
//   - heap allocations: new, make, escaping composite literals,
//     append growth, string<->[]byte conversions, fmt formatting;
//   - map accesses and iterations;
//   - channel sends, receives, and selects;
//   - interface boxing at call sites;
//   - defer, goroutine launches, and mutex acquisition.
//
// A finding is not proof of a bug — some hot functions legitimately
// allocate on cold sub-paths (fault exits, first-touch discovery).
// Audited sites carry //reprolint:allow hotpath annotations.
func checkHotPath(m *Module, report func(*Package, token.Pos, string)) {
	g := m.CallGraph()
	for _, n := range g.HotFunctions() {
		scanHotFunc(n, report)
	}
}

// scanHotFunc reports hygiene findings inside one hot function.
func scanHotFunc(n *funcNode, report func(*Package, token.Pos, string)) {
	pkg := n.pkg
	where := fmt.Sprintf("in hot function %s", n.display)
	if n.root {
		where += " (hotpath root)"
	} else {
		where += fmt.Sprintf(" (reached from %s)", n.via)
	}
	say := func(pos token.Pos, msg string) {
		report(pkg, pos, msg+" "+where)
	}
	walkWithStack(n.decl.Body, func(node ast.Node, stack []ast.Node) {
		switch x := node.(type) {
		case *ast.CallExpr:
			scanHotCall(pkg, x, say)
		case *ast.CompositeLit:
			switch pkg.typeOf(x).(type) {
			case *types.Slice, *types.Map:
				say(x.Pos(), fmt.Sprintf("heap allocation: %s literal", types.ExprString(x.Type)))
			default:
				// Struct and array literals allocate only when their
				// address is taken.
				if len(stack) > 0 {
					if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
						say(u.Pos(), fmt.Sprintf("heap allocation: &%s literal", types.ExprString(x.Type)))
					}
				}
			}
		case *ast.IndexExpr:
			if _, ok := pkg.typeOf(x.X).(*types.Map); ok {
				say(x.Pos(), fmt.Sprintf("map access %s[...]", types.ExprString(x.X)))
			}
		case *ast.RangeStmt:
			switch pkg.typeOf(x.X).(type) {
			case *types.Map:
				say(x.Pos(), "map iteration")
			case *types.Chan:
				say(x.Pos(), "channel receive (range)")
			}
		case *ast.SendStmt:
			say(x.Pos(), fmt.Sprintf("channel send to %s", types.ExprString(x.Chan)))
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				say(x.Pos(), fmt.Sprintf("channel receive from %s", types.ExprString(x.X)))
			}
		case *ast.SelectStmt:
			say(x.Pos(), "select")
		case *ast.DeferStmt:
			say(x.Pos(), "defer")
		case *ast.GoStmt:
			say(x.Pos(), "goroutine launch")
		}
	})
}

// typeOf returns the underlying type of e, or nil.
func (p *Package) typeOf(e ast.Expr) types.Type {
	t := p.Info.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// scanHotCall classifies one call expression in a hot function.
func scanHotCall(pkg *Package, call *ast.CallExpr, say func(token.Pos, string)) {
	// Conversions: only string<->[]byte/[]rune copy.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isStringBytesConv(tv.Type, pkg.Info.TypeOf(call.Args[0])) {
			say(call.Pos(), fmt.Sprintf("allocating conversion %s(...)", types.ExprString(call.Fun)))
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				say(call.Pos(), fmt.Sprintf("heap allocation: %s", types.ExprString(call)))
			case "make":
				say(call.Pos(), fmt.Sprintf("heap allocation: %s", types.ExprString(call)))
			case "append":
				say(call.Pos(), "append may grow its backing array")
			}
			return
		}
	}
	fn := funcOf(pkg.Info, call)
	if fn == nil {
		return
	}
	if pkgPathOf(fn) == "fmt" {
		say(call.Pos(), fmt.Sprintf("fmt.%s formats and allocates", fn.Name()))
		return
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rs := types.TypeString(recv.Type(), nil)
		switch fn.Name() {
		case "Lock", "RLock", "TryLock", "TryRLock":
			if strings.Contains(rs, "sync.Mutex") || strings.Contains(rs, "sync.RWMutex") {
				say(call.Pos(), fmt.Sprintf("mutex acquisition %s.%s", rs, fn.Name()))
				return
			}
		}
	}
	scanBoxing(pkg, call, fn, say)
}

// scanBoxing flags arguments boxed into interface parameters: passing a
// non-pointer-shaped concrete value where an interface is expected
// allocates per call.
func scanBoxing(pkg *Package, call *ast.CallExpr, fn *types.Func, say func(token.Pos, string)) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing here
			}
			s, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice)
			if !ok {
				continue
			}
			pt = s.Elem()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := pkg.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isPointerShaped(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		say(arg.Pos(), fmt.Sprintf("interface boxing: %s argument converted to %s",
			shortTypeName(at), shortTypeName(pt)))
	}
}

// isPointerShaped reports whether values of t fit an interface word
// without allocating: pointers, channels, maps, funcs, unsafe pointers.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isStringBytesConv reports whether converting from into to copies
// string<->[]byte/[]rune storage.
func isStringBytesConv(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// shortTypeName renders t with bare package names.
func shortTypeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
