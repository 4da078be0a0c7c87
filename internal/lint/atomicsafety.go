package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkAtomicSafety is the atomicsafety pass, guarding the parallel
// code paths (the harness worker pool, the service job queue)
// against the three concurrency mistakes a refactor most easily
// introduces:
//
//  1. mixed access: a field updated through sync/atomic in one place
//     but read or written plainly elsewhere in the package — the plain
//     access races with the atomic one (typed atomics like
//     atomic.Uint64 are immune by construction and preferred);
//  2. lock copies: passing or assigning by value a struct that
//     contains a sync primitive, which silently forks the lock;
//  3. goroutine-captured writes: a goroutine literal writing a
//     variable of the enclosing function that the function keeps using
//     after the launch — worker-local state escaping its goroutine.
//     Index writes (results[i] = ...) are exempt: disjoint-index
//     fan-out is the repo's sanctioned pattern.
func checkAtomicSafety(p *Package, report func(token.Pos, string)) {
	p.checkMixedAtomics(report)
	p.checkLockCopies(report)
	p.checkGoroutineCaptures(report)
}

// checkMixedAtomics flags plain accesses to fields that are accessed
// atomically somewhere in the package.
func (p *Package) checkMixedAtomics(report func(token.Pos, string)) {
	// Pass 1: fields whose address is taken into a sync/atomic call.
	atomicFields := make(map[types.Object]bool)
	inAtomicCall := make(map[*ast.SelectorExpr]bool)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcOf(p.Info, call)
			if pkgPathOf(fn) != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if obj := p.fieldOf(sel); obj != nil {
					atomicFields[obj] = true
					inAtomicCall[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}
	// Pass 2: the same fields accessed outside any sync/atomic call.
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || inAtomicCall[sel] {
				return true
			}
			obj := p.fieldOf(sel)
			if obj != nil && atomicFields[obj] {
				report(sel.Pos(), fmt.Sprintf(
					"field %s is accessed with sync/atomic elsewhere but plainly here; every access must be atomic",
					obj.Name()))
			}
			return true
		})
	}
}

// fieldOf resolves sel to a struct field object, or nil.
func (p *Package) fieldOf(sel *ast.SelectorExpr) types.Object {
	if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

// checkLockCopies flags by-value copies of types containing sync
// primitives: parameters, plain assignments from existing values, call
// arguments, and range values.
func (p *Package) checkLockCopies(report func(token.Pos, string)) {
	// The seen map guards against recursive types; it must be fresh per
	// query, since it marks visited (not lock-free) types.
	locky := func(t types.Type) bool { return hasLock(t, make(map[types.Type]bool)) }
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncType:
				if x.Params == nil {
					return true
				}
				for _, f := range x.Params.List {
					if t := p.Info.TypeOf(f.Type); t != nil && locky(t) {
						report(f.Pos(), fmt.Sprintf(
							"parameter passes %s by value, copying its lock; use a pointer", shortTypeName(t)))
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if i >= len(x.Lhs) {
						break
					}
					if id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
						continue // discard, no live copy
					}
					if !copiesValue(rhs) {
						continue
					}
					if t := p.Info.TypeOf(rhs); t != nil && locky(t) {
						report(rhs.Pos(), fmt.Sprintf(
							"assignment copies %s, forking its lock; use a pointer", shortTypeName(t)))
					}
				}
			case *ast.CallExpr:
				if tv, ok := p.Info.Types[x.Fun]; ok && tv.IsType() {
					return true // conversion, not a call
				}
				for _, arg := range x.Args {
					if !copiesValue(arg) {
						continue
					}
					if tv, ok := p.Info.Types[ast.Unparen(arg)]; ok && tv.IsType() {
						continue // type operand of new/make, not a value
					}
					if t := p.Info.TypeOf(arg); t != nil && locky(t) {
						report(arg.Pos(), fmt.Sprintf(
							"argument copies %s, forking its lock; pass a pointer", shortTypeName(t)))
					}
				}
			case *ast.RangeStmt:
				if x.Value == nil {
					return true
				}
				if t := p.Info.TypeOf(x.Value); t != nil && locky(t) {
					report(x.Value.Pos(), fmt.Sprintf(
						"range copies %s elements by value, forking their locks; range over indices", shortTypeName(t)))
				}
			}
			return true
		})
	}
}

// copiesValue reports whether e reads an existing value (as opposed to
// constructing a fresh one, which is a legitimate initialization).
func copiesValue(e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// hasLock reports whether t contains a sync or sync/atomic primitive by
// value.
func hasLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync", "sync/atomic":
				return !types.IsInterface(t)
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return hasLock(u.Elem(), seen)
	}
	return false
}

// checkGoroutineCaptures flags `go func() { ... }` literals that write
// a captured variable the enclosing function also uses after the
// launch.
func (p *Package) checkGoroutineCaptures(report func(token.Pos, string)) {
	for _, file := range p.Files {
		var funcs []*ast.BlockStmt
		walkWithStack(file, func(n ast.Node, stack []ast.Node) {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				funcs = append(funcs, fn.Body)
			case *ast.FuncLit:
				funcs = append(funcs, fn.Body)
			}
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				return
			}
			var body *ast.BlockStmt
			for i := len(funcs) - 1; i >= 0; i-- {
				if funcs[i] != nil && funcs[i].Pos() <= g.Pos() && g.End() <= funcs[i].End() {
					body = funcs[i]
					break
				}
			}
			if body != nil {
				p.checkOneCapture(g, lit, body, report)
			}
		})
	}
}

func (p *Package) checkOneCapture(g *ast.GoStmt, lit *ast.FuncLit, enclosing *ast.BlockStmt,
	report func(token.Pos, string)) {
	// Captured variables the literal writes with a plain identifier
	// assignment.
	written := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := p.Info.ObjectOf(id)
			if obj == nil {
				continue
			}
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() {
				continue
			}
			// Captured: declared outside the literal, inside the
			// enclosing function.
			if obj.Pos() < lit.Pos() && obj.Pos() >= enclosing.Pos() {
				written[obj] = true
			}
		}
		return true
	})
	if len(written) == 0 {
		return
	}
	// Any use of those variables after the go statement, outside the
	// literal itself, races with the goroutine.
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if n == lit {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() <= g.End() {
			return true
		}
		if obj := p.Info.ObjectOf(id); obj != nil && written[obj] {
			report(g.Pos(), fmt.Sprintf(
				"goroutine writes captured variable %q also used at line %d after launch; confine it to the goroutine or synchronize the handoff",
				id.Name, p.Fset.Position(id.Pos()).Line))
			written[obj] = false // one report per variable
		}
		return true
	})
}
