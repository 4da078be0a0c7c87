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
	refs := m.refs()
	flag := func(pkg *Package, id *ast.Ident, name string) {
		file := pkg.Fset.File(id.Pos())
		for _, r := range refs[id.Pos()] {
			if r.pkg.tested && r.pkg.Fset.File(r.id.Pos()) != file {
				report(r.pkg, r.id.Pos(), fmt.Sprintf("%s is deprecated; only its declaring file %s may reference it",
					name, filepath.Base(file.Name())))
			}
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if isDeprecated(d.Doc) {
						flag(pkg, d.Name, pkg.Types.Name()+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if st, ok := ts.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									if isDeprecated(field.Doc) {
										flag(pkg, n, pkg.Types.Name()+"."+ts.Name.Name+"."+n.Name)
									}
								}
							}
						}
					}
				}
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
