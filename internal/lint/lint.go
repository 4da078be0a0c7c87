// Package lint implements reprolint, the repository's static-analysis
// pass (see cmd/reprolint). It is built only on the standard library's
// go/ast, go/parser, go/token and go/types packages. Its passes, in
// registry order (PassNames):
//
//   - determinism, looporder and entropy: artifact-producing code must
//     not let map iteration order or ambient entropy (time, math/rand)
//     leak into results; looporder's taint walk catches map-range-derived
//     values that reach an output sink after the loop without a sort;
//   - errcheck: error returns in internal/ and cmd/ are consumed or
//     explicitly discarded with `_ =`;
//   - confighygiene: numeric literals duplicating named experiment
//     defaults reference the defining constant instead;
//   - atomicsafety: no mixed atomic and plain field access, lock copies
//     or escaping goroutine-captured writes;
//   - branchless (advisory): branch-free spellings of predictor idioms;
//   - hotpath: no allocation, map access, boxing or locking in code
//     reachable from a //reprolint:hotpath root;
//   - deprecated: a function or struct field documented "Deprecated:"
//     is referenced only from its declaring file, test files included;
//   - testonly: every export under internal/ has a non-test reference.
//
// Findings can be suppressed with a trailing or preceding comment of the
// form
//
//	//reprolint:allow <pass> [reason...]
//
// which is itself the audit trail: it marks code a human has checked is
// deterministic (or intentionally wall-clock) despite the pattern.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Severity ranks findings. Error and Warn findings fail the build;
// Info findings are advisory (reported, never a failure) — the
// branchless pass uses them to suggest idioms without blocking.
type Severity string

const (
	// SevError marks invariant violations (determinism, dropped errors,
	// atomic misuse).
	SevError Severity = "error"
	// SevWarn marks hot-path hygiene findings: not provably wrong, but
	// exactly the constructs that erase a perf win when they creep into
	// an inner loop.
	SevWarn Severity = "warn"
	// SevInfo marks advisory idiom suggestions.
	SevInfo Severity = "info"
)

// Fails reports whether a finding of this severity should fail the run.
func (s Severity) Fails() bool { return s != SevInfo }

// Finding is one lint diagnostic.
type Finding struct {
	Pos      token.Position
	Pass     string
	Severity Severity
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", f.Pos, f.Severity, f.Pass, f.Msg)
}

// Package is one loaded, type-checked package ready for linting.
type Package struct {
	Path  string // import path, e.g. repro/internal/graph
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package

	// allow maps file name -> line -> set of suppressed pass names
	// ("all" suppresses every pass).
	allow map[string]map[int]map[string]bool

	// tests are the package's _test.go files, type-checked by the
	// Loader for the passes that also cover tests (deprecated, testonly):
	// the in-package ones together with Files, an external _test package
	// on its own.
	tests []testUnit
	// tested marks a package of the loaded module itself, which the
	// Loader checks with its tests. A package of a module nested below it
	// (perfbench/ has its own go.mod) is loaded without them, only as a
	// source of references: such callers are why a deprecated name is
	// kept, so neither deprecated nor testonly reports there, nor in a
	// fixture package built by TypeCheck.
	tested bool
}

// testUnit is one type-checked set of test files; info also covers the
// package files checked with them.
type testUnit struct {
	files []*ast.File
	info  *types.Info
}

// pass is one package-local lint pass.
type pass struct {
	name     string
	severity Severity
	run      func(*Package, func(token.Pos, string))
}

// passes is the package-local registry, in reporting order.
var passes = []pass{
	{"determinism", SevError, checkRangeMap},
	{"looporder", SevError, checkLoopOrder},
	{"entropy", SevError, checkEntropy},
	{"errcheck", SevError, checkErrors},
	{"confighygiene", SevError, checkConfig},
	{"atomicsafety", SevWarn, checkAtomicSafety},
	{"branchless", SevInfo, checkBranchless},
}

// modulePass is one whole-module (interprocedural) pass. It receives
// every loaded package at once so analyses can follow calls across
// package boundaries; findings are attributed to the package owning the
// reported position.
type modulePass struct {
	name     string
	severity Severity
	run      func(*Module, func(*Package, token.Pos, string))
}

// modulePasses is the interprocedural registry.
var modulePasses = []modulePass{
	{"hotpath", SevWarn, checkHotPath},
	{"deprecated", SevError, checkDeprecated},
	{"testonly", SevError, checkTestOnly},
}

// PassNames returns the registered pass names, local passes first.
func PassNames() []string {
	names := make([]string, 0, len(passes)+len(modulePasses))
	for _, p := range passes {
		names = append(names, p.name)
	}
	for _, p := range modulePasses {
		names = append(names, p.name)
	}
	return names
}

// Module is a set of loaded packages analyzed together. The
// interprocedural passes (hotpath) resolve calls across every package
// in the module; package-local passes run per package.
type Module struct {
	Pkgs []*Package

	graph *callGraph          // built lazily by CallGraph
	index map[token.Pos][]ref // built lazily by refs
}

// NewModule wraps pkgs for whole-module analysis. The packages should
// share one token.FileSet (the Loader guarantees this).
func NewModule(pkgs []*Package) *Module {
	return &Module{Pkgs: pkgs}
}

// Findings runs every registered pass — package-local passes on each
// package, interprocedural passes on the module — and returns
// unsuppressed findings in a stable total order: by file, line, column,
// pass, then message, so baseline diffs and CI logs are deterministic
// across runs and GOMAXPROCS.
func (m *Module) Findings() []Finding {
	var out []Finding
	for _, pkg := range m.Pkgs {
		for _, p := range passes {
			p := p
			p.run(pkg, func(pos token.Pos, msg string) {
				if f, ok := pkg.finding(pos, p.name, p.severity, msg); ok {
					out = append(out, f)
				}
			})
		}
	}
	for _, p := range modulePasses {
		p := p
		p.run(m, func(pkg *Package, pos token.Pos, msg string) {
			if f, ok := pkg.finding(pos, p.name, p.severity, msg); ok {
				out = append(out, f)
			}
		})
	}
	SortFindings(out)
	return out
}

// finding resolves and suppression-filters one diagnostic.
func (p *Package) finding(pos token.Pos, pass string, sev Severity, msg string) (Finding, bool) {
	position := p.Fset.Position(pos)
	if p.suppressed(position, pass) {
		return Finding{}, false
	}
	return Finding{Pos: position, Pass: pass, Severity: sev, Msg: msg}, true
}

// SortFindings sorts findings into the canonical total order: file,
// line, column, pass, message.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if fs[i].Pass != fs[j].Pass {
			return fs[i].Pass < fs[j].Pass
		}
		return fs[i].Msg < fs[j].Msg
	})
}

func (p *Package) suppressed(pos token.Position, pass string) bool {
	lines := p.allow[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if set := lines[line]; set != nil && (set[pass] || set["all"]) {
			return true
		}
	}
	return false
}

// collectAllows indexes //reprolint:allow comments by file and line,
// in the package's files and its test files.
func (p *Package) collectAllows() {
	p.allow = make(map[string]map[int]map[string]bool)
	files := p.Files
	for _, u := range p.tests {
		files = append(files[:len(files):len(files)], u.files...)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//reprolint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				lines := p.allow[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					p.allow[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					lines[pos.Line] = set
				}
				set[fields[0]] = true
			}
		}
	}
}

// Loader loads and type-checks the packages of one module, each once.
// It is itself the types.Importer its packages are checked with: a path
// under Module is served from the Loader's own memoized load, so every
// reference to a module declaration resolves to the one object in the
// declaring package's Defs, at one position; any other path goes to the
// (caching) source importer.
type Loader struct {
	Root   string // module root directory
	Module string // module path from go.mod
	Fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*Package // by import path; nil while being checked
}

// NewLoader returns a Loader for the module rooted at dir (the
// directory containing go.mod).
func NewLoader(dir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", dir)
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   dir,
		Module: module,
		Fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*Package),
	}, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.Module)
	if !ok || (rel != "" && rel[0] != '/') {
		return l.std.Import(path)
	}
	pkg, err := l.load(path, filepath.Join(l.Root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// PackageDirs expands patterns ("./...", "./cmd/...", or plain package
// directories) into the set of directories under Root holding at least
// one non-test .go file. testdata and hidden directories are skipped.
func (l *Loader) PackageDirs(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) error {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && isLintableFile(e.Name()) {
				if !seen[dir] {
					seen[dir] = true
					dirs = append(dirs, dir)
				}
				return nil
			}
		}
		return nil
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(l.Root, strings.TrimSuffix(rest, "/"))
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				return add(path)
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if err := add(filepath.Join(l.Root, pat)); err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func isLintableFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// Load parses and type-checks the package in dir. Test files are
// loaded beside it for the deprecated and testonly passes only: the
// other passes guard artifact-producing code, and fixtures under
// testdata intentionally violate them.
func (l *Loader) Load(dir string) (*Package, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return nil, err
	}
	path := l.Module
	if rel != "." {
		path = l.Module + "/" + filepath.ToSlash(rel)
	}
	pkg, err := l.load(path, dir)
	if err != nil || pkg.tested {
		return pkg, err
	}
	for d := dir; len(d) > len(l.Root); d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return pkg, nil
		}
	}
	tests, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	l.checkTests(pkg, tests)
	return pkg, nil
}

// load type-checks the non-test files of the package at import path
// path, once: later loads and imports of path share the result.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return pkg, nil
	}
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	l.pkgs[path] = nil
	pkg, err := TypeCheck(l.Fset, path, files, l)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses dir's _test.go files when tests is set, and its other
// .go files otherwise.
func (l *Loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || isLintableFile(name) == tests {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkTests type-checks pkg's test files: the in-package ones together
// with pkg's files, an external _test package on its own. Type errors
// are tolerated, since the compiler is the gate for test code; the
// partial Info still resolves every reference it reached.
func (l *Loader) checkTests(pkg *Package, tests []*ast.File) {
	var in, ext []*ast.File
	for _, f := range tests {
		if f.Name.Name == pkg.Types.Name() {
			in = append(in, f)
		} else {
			ext = append(ext, f)
		}
	}
	check := func(path string, files []*ast.File) *types.Info {
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		conf := types.Config{Importer: l, Error: func(error) {}}
		_, _ = conf.Check(path, l.Fset, files, info) // errors tolerated, see above
		return info
	}
	if len(in) > 0 {
		all := append(append([]*ast.File(nil), pkg.Files...), in...)
		pkg.tests = append(pkg.tests, testUnit{in, check(pkg.Path, all)})
	}
	if len(ext) > 0 {
		pkg.tests = append(pkg.tests, testUnit{ext, check(pkg.Path+"_test", ext)})
	}
	pkg.tested = true
	pkg.collectAllows()
}

// TypeCheck type-checks files as package path and wraps them as a
// lintable Package. Exported for tests, which synthesize fixture
// packages from source strings.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	if imp == nil {
		imp = importer.ForCompiler(fset, "source", nil)
	}
	conf := types.Config{Importer: imp}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Fset: fset, Files: files, Info: info, Types: tpkg}
	pkg.collectAllows()
	return pkg, nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// funcOf resolves the called function object of a call expression, or
// nil for calls through function values, builtins, and conversions.
func funcOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathOf returns the import path of fn's defining package, or "" for
// builtins.
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
