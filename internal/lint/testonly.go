package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ref is one reference to an object declared in a loaded package.
type ref struct {
	pkg  *Package
	id   *ast.Ident
	test bool // the referencing file is a _test.go file
}

// refs builds (once) and returns the module's reference index: the
// declaring identifier of every package-level object, method and field
// of the loaded packages, mapped to its references from every loaded
// file, test files included. It is the one walk over every file and
// test unit behind the deprecated and testonly passes.
func (m *Module) refs() map[token.Pos][]ref {
	if m.index != nil {
		return m.index
	}
	loaded := make(map[string]bool, len(m.Pkgs))
	for _, pkg := range m.Pkgs {
		loaded[pkg.Path] = true
	}
	m.index = make(map[token.Pos][]ref)
	for _, pkg := range m.Pkgs {
		for i, u := range append([]testUnit{{pkg.Files, pkg.Info}}, pkg.tests...) {
			for _, f := range u.files {
				ast.Inspect(f, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := u.info.Uses[id]
					if obj == nil || obj.Pkg() == nil || !loaded[obj.Pkg().Path()] ||
						(obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope()) {
						return true
					}
					m.index[obj.Pos()] = append(m.index[obj.Pos()], ref{pkg, id, i > 0})
					return true
				})
			}
		}
	}
	return m.index
}

// checkTestOnly is the "testonly" pass. It flags an exported function,
// method, type, constant or variable declared in a non-test file under
// internal/ that no non-test file of the module references, so that
// only tests keep it alive. Struct fields are exempt, since
// encoding/json and reflection read them, and so is a method through
// which its type implements an interface (see satisfying). Test oracles
// and fixtures stay behind //reprolint:allow testonly <reason>. Only
// the loaded packages' references count, and only packages loaded with
// their tests are judged.
func checkTestOnly(m *Module, report func(*Package, token.Pos, string)) {
	refs, viaIface := m.refs(), satisfying(m)
	for _, pkg := range m.Pkgs {
		if !pkg.tested || !strings.Contains("/"+pkg.Path+"/", "/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			objs := []types.Object{scope.Lookup(name)}
			if tn, ok := objs[0].(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					for i := range n.NumMethods() {
						objs = append(objs, n.Method(i))
					}
				}
			}
			for _, obj := range objs {
				if !obj.Exported() || viaIface[obj.Pos()] {
					continue
				}
				live := false
				for _, r := range refs[obj.Pos()] {
					live = live || !r.test
				}
				if live {
					continue
				}
				name := pkg.Types.Name() + "." + obj.Name()
				if fn, ok := obj.(*types.Func); ok {
					name = shortFuncName(fn.FullName())
				}
				report(pkg, obj.Pos(), fmt.Sprintf("%s is exported but no non-test file references it; "+
					"delete or unexport it, or mark it //reprolint:allow testonly <reason>", name))
			}
		}
	}
}

// satisfying returns the declaring positions of the methods through
// which a type of a loaded package implements an interface that
// non-test code declares or names, or fmt.Stringer: calls through the
// interface name only the interface method. Methods match by name and
// sigKey, since each loaded package has its own type objects; a generic
// interface's methods, whose signatures mention its type parameters,
// match by name alone.
func satisfying(m *Module) map[token.Pos]bool {
	ifaces := map[string]map[string]string{"fmt.Stringer": {"String": "String()(string)"}}
	for _, pkg := range m.Pkgs {
		for _, objs := range []map[*ast.Ident]types.Object{pkg.Info.Defs, pkg.Info.Uses} {
			for _, obj := range objs {
				tn, ok := obj.(*types.TypeName)
				if !ok || !types.IsInterface(tn.Type()) {
					continue
				}
				n, _ := tn.Type().(*types.Named)
				generic := n != nil && n.TypeParams().Len() > 0
				it := tn.Type().Underlying().(*types.Interface)
				ms := make(map[string]string, it.NumMethods())
				for i := range it.NumMethods() {
					if fn := it.Method(i); generic {
						ms[fn.Name()] = ""
					} else {
						ms[fn.Name()] = sigKey(fn)
					}
				}
				ifaces[types.TypeString(tn.Type(), nil)] = ms
			}
		}
	}
	used := make(map[token.Pos]bool)
	for _, pkg := range m.Pkgs {
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for _, ms := range ifaces {
				var impl []token.Pos
				for name, key := range ms {
					if sel := mset.Lookup(tn.Pkg(), name); sel != nil && (key == "" || sigKey(sel.Obj().(*types.Func)) == key) {
						impl = append(impl, sel.Obj().Pos())
					}
				}
				if len(impl) == len(ms) {
					for _, pos := range impl {
						used[pos] = true
					}
				}
			}
		}
	}
	return used
}
