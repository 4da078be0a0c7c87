package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// checkDeprecated is the "deprecated" pass. It flags every reference to
// a function or struct field whose doc comment has a "Deprecated:"
// paragraph, outside the file that declares it, test files included.
// Such a name stays only for callers outside the module (the nested
// perfbench module still sets a few harness and core config fields, and
// is not reported), so nothing in the module may start using it again.
// Declarations are collected from the loaded packages: run the pass over
// the whole module (./...) to see every one.
func checkDeprecated(m *Module, report func(*Package, token.Pos, string)) {
	decls := make(map[token.Position]string) // declaring identifier -> qualified name
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if isDeprecated(d.Doc) {
						decls[absPosition(pkg.Fset, d.Name.Pos())] = pkg.Types.Name() + "." + d.Name.Name
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							if !isDeprecated(field.Doc) {
								continue
							}
							for _, n := range field.Names {
								decls[absPosition(pkg.Fset, n.Pos())] = pkg.Types.Name() + "." + ts.Name.Name + "." + n.Name
							}
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		return
	}
	for _, pkg := range m.Pkgs {
		if pkg.nested {
			continue
		}
		units := append([]testUnit{{pkg.Files, pkg.Info}}, pkg.tests...)
		for _, u := range units {
			for _, f := range u.files {
				file := absPosition(pkg.Fset, f.Pos()).Filename
				ast.Inspect(f, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := u.info.Uses[id]
					if obj == nil || !obj.Pos().IsValid() {
						return true
					}
					at := absPosition(pkg.Fset, obj.Pos())
					if name, ok := decls[at]; ok && at.Filename != file {
						report(pkg, id.Pos(), fmt.Sprintf("%s is deprecated; only its declaring file %s may reference it",
							name, filepath.Base(at.Filename)))
					}
					return true
				})
			}
		}
	}
}

// isDeprecated reports whether a doc comment has a paragraph starting
// "Deprecated:", the Go convention.
func isDeprecated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, para := range strings.Split(doc.Text(), "\n\n") {
		if strings.HasPrefix(para, "Deprecated:") {
			return true
		}
	}
	return false
}

// absPosition resolves pos with an absolute file name, so a declaration
// parsed by the loader and the same one parsed again by the source
// importer compare equal.
func absPosition(fset *token.FileSet, pos token.Pos) token.Position {
	p := fset.Position(pos)
	if abs, err := filepath.Abs(p.Filename); err == nil {
		p.Filename = abs
	}
	return p
}
