package lint_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// lintFixture type-checks src as a single-file package at import path
// pkgPath and returns its findings. The shared source importer caches
// the (expensive) from-source stdlib type-checks across tests.
var (
	fixtureFset = token.NewFileSet()
	fixtureImp  = importer.ForCompiler(fixtureFset, "source", nil)
)

func lintFixture(t *testing.T, pkgPath, src string) []lint.Finding {
	t.Helper()
	f, err := parser.ParseFile(fixtureFset, t.Name()+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.TypeCheck(fixtureFset, pkgPath, []*ast.File{f}, fixtureImp)
	if err != nil {
		t.Fatal(err)
	}
	return lint.NewModule([]*lint.Package{pkg}).Findings()
}

// expect asserts that findings contains exactly the given pass names on
// the given fixture lines, in any order.
func expect(t *testing.T, findings []lint.Finding, want map[int]string) {
	t.Helper()
	got := make(map[int]string)
	for _, f := range findings {
		if prev, ok := got[f.Pos.Line]; ok && prev != f.Pass {
			got[f.Pos.Line] = prev + "," + f.Pass
			continue
		}
		got[f.Pos.Line] = f.Pass
	}
	for line, pass := range want {
		if got[line] != pass {
			t.Errorf("line %d: want pass %q, got %q", line, pass, got[line])
		}
	}
	for line, pass := range got {
		if _, ok := want[line]; !ok {
			t.Errorf("line %d: unexpected %s finding", line, pass)
		}
	}
	if t.Failed() {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
	}
}

func TestDeterminismFlagsUnsortedEscapingAppend(t *testing.T) {
	findings := lintFixture(t, "repro/internal/fixture", `package fixture

import "sort"

type result struct{ Names []string }

func Bad(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // line 10: returned unsorted
	}
	return out
}

func Good(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // sorted below: fine
	}
	sort.Strings(out)
	return out
}

func GoodLocal(m map[string]int) int {
	var scratch []string
	n := 0
	for k := range m {
		scratch = append(scratch, k) // never escapes: fine
		n += len(k)
	}
	return n
}

func BadField(m map[string]int, r *result) {
	for k := range m {
		r.Names = append(r.Names, k) // line 36: escapes via field
	}
}

func GoodSlice(vals []string) []string {
	var out []string
	for _, v := range vals {
		out = append(out, v) // not a map: fine
	}
	return out
}
`)
	expect(t, findings, map[int]string{10: "determinism", 36: "determinism"})
}

func TestDeterminismFlagsOutputAndFieldWrites(t *testing.T) {
	findings := lintFixture(t, "repro/internal/fixture", `package fixture

import (
	"fmt"
	"strings"
)

type summary struct{ Last string }

func BadPrint(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // line 12: output order depends on map order
	}
}

func BadBuilder(m map[string]int, b *strings.Builder) {
	for k := range m {
		b.WriteString(k) // line 18: same, through a writer method
	}
}

func BadLastWriter(m map[string]int, s *summary) {
	for k := range m {
		s.Last = k // line 24: surviving value depends on map order
	}
}

func GoodCounter(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // commutative accumulation: fine
	}
	return n
}

func GoodConstantPrint(m map[string]int) {
	for range m {
		fmt.Println("tick") // no loop variable: content deterministic
	}
}
`)
	expect(t, findings, map[int]string{12: "determinism", 18: "determinism", 24: "determinism"})
}

func TestLoopOrderFlagsDeferredSinks(t *testing.T) {
	findings := lintFixture(t, "repro/internal/fixture", `package fixture

import (
	"fmt"
	"sort"
)

func BadCollectPrint(m map[string]int) {
	var keys []string
	for k := range m { // line 10: tainted slice printed below
		keys = append(keys, k)
	}
	fmt.Println(keys)
}

func BadDerivedRange(m map[string]int) {
	var keys []string
	for k := range m { // line 18: taint flows through the second range
		keys = append(keys, k)
	}
	for _, k := range keys {
		fmt.Println(k)
	}
}

func BadConcat(m map[string]int, out *fmt.Stringer) string {
	s := ""
	for k := range m { // line 28: string concatenation is ordered
		s += k
	}
	fmt.Print(s)
	return s
}

func GoodSorted(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println(keys)
}

func GoodCounter(m map[string]int) {
	n := 0
	for _, v := range m {
		n += v // scalar accumulation is order-insensitive
	}
	fmt.Println(n)
}

func GoodKeyed(m map[string]int) {
	inv := make(map[int]string)
	for k, v := range m {
		inv[v] = k // keyed write: order-insensitive
	}
	fmt.Println(len(inv))
}

func GoodUnrelated(m map[string]int, names []string) {
	for k := range m {
		_ = k
	}
	fmt.Println(names) // not derived from the range
}
`)
	expect(t, findings, map[int]string{10: "looporder", 18: "looporder", 28: "looporder"})
}

func TestLoopOrderAllowComment(t *testing.T) {
	findings := lintFixture(t, "repro/internal/fixture", `package fixture

import "fmt"

func Audited(m map[string]int) {
	var keys []string
	//reprolint:allow looporder diagnostic dump, order irrelevant
	for k := range m {
		keys = append(keys, k)
	}
	fmt.Println(keys)
}
`)
	expect(t, findings, map[int]string{})
}

func TestEntropyFlagsRandAndWallClock(t *testing.T) {
	findings := lintFixture(t, "repro/internal/fixture", `package fixture

import (
	"math/rand" // line 4: banned import
	"time"
)

func Seed() int64 {
	return time.Now().UnixNano() + rand.Int63() // line 9: wall clock
}

func GoodDuration(d time.Duration) time.Duration {
	return d * 2 // using time types is fine; reading the clock is not
}
`)
	expect(t, findings, map[int]string{4: "entropy", 9: "entropy"})
}

func TestEntropyAllowedInRngPackage(t *testing.T) {
	findings := lintFixture(t, "repro/internal/rng", `package rng

import "time"

func Seed() int64 { return time.Now().UnixNano() }
`)
	expect(t, findings, map[int]string{})
}

func TestErrcheckFlagsDroppedErrors(t *testing.T) {
	findings := lintFixture(t, "repro/internal/fixture", `package fixture

import (
	"fmt"
	"os"
	"strings"
)

func Drop(name string) {
	f, _ := os.Open(name)
	f.Close() // line 11: dropped error
	_ = f.Close()
	if err := f.Close(); err != nil {
		fmt.Println(err)
	}
	fmt.Println("done") // fmt console output is excluded
	var b strings.Builder
	b.WriteString("x") // never-failing writer is excluded
}
`)
	expect(t, findings, map[int]string{11: "errcheck"})
}

func TestErrcheckScopedToInternalAndCmd(t *testing.T) {
	src := `package fixture

import "os"

func Drop(name string) {
	f, _ := os.Open(name)
	f.Close()
}
`
	if findings := lintFixture(t, "repro/examples/fixture", src); len(findings) != 0 {
		t.Errorf("examples package flagged: %v", findings)
	}
	if findings := lintFixture(t, "repro/cmd/fixture", src); len(findings) != 1 {
		t.Errorf("cmd package not flagged: %v", findings)
	}
}

func TestConfigHygieneFlagsRestatedDefaults(t *testing.T) {
	findings := lintFixture(t, "repro/internal/fixture", `package fixture

type cfg struct {
	Threshold uint64
	Taken     float64
	NotTaken  float64
}

func Bad() cfg {
	c := cfg{Threshold: 100, Taken: 0.99, NotTaken: 0.01} // line 10: three restated defaults
	return c
}

func BadAssign(c *cfg) {
	c.Threshold = 100 // line 15
}

func BadConv() uint64 {
	threshold := uint64(100) // line 19: conversions are transparent
	return threshold
}

func Good() int {
	limit := 100 // unrelated name: fine
	pct := 100 * limit / 100
	return pct
}
`)
	expect(t, findings, map[int]string{10: "confighygiene", 15: "confighygiene", 19: "confighygiene"})
}

func TestConfigHygieneExemptsDefiningPackage(t *testing.T) {
	findings := lintFixture(t, "repro/internal/classify", `package classify

type Thresholds struct{ Taken, NotTaken float64 }

func Default() Thresholds { return Thresholds{Taken: 0.99, NotTaken: 0.01} }
`)
	expect(t, findings, map[int]string{})
}

func TestAllowCommentSuppresses(t *testing.T) {
	findings := lintFixture(t, "repro/internal/fixture", `package fixture

import "time"

func Audited() int64 {
	return time.Now().UnixNano() //reprolint:allow entropy progress timing only
}

func AuditedAbove() int64 {
	//reprolint:allow entropy progress timing only
	return time.Now().UnixNano()
}

func WrongPass() int64 {
	return time.Now().UnixNano() //reprolint:allow errcheck (line 15: wrong pass name)
}
`)
	expect(t, findings, map[int]string{15: "entropy"})
}

func TestPassNames(t *testing.T) {
	names := strings.Join(lint.PassNames(), " ")
	for _, want := range []string{"determinism", "looporder", "entropy", "errcheck", "confighygiene"} {
		if !strings.Contains(names, want) {
			t.Errorf("pass %q not registered (have: %s)", want, names)
		}
	}
}

// TestLoaderSharesModuleObjects loads a two-package module from outside
// this one. The Loader serves module imports from its own loads, so b's
// use of a.F must resolve to the very object in a's Defs. b loads first,
// so a is first reached through the import.
func TestLoaderSharesModuleObjects(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"a/a.go": "package a\n\nfunc F() int { return 1 }\n",
		"b/b.go": "package b\n\nimport \"example.com/m/a\"\n\nvar X = a.F()\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loader.Load(filepath.Join(root, "b"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := loader.Load(filepath.Join(root, "a"))
	if err != nil {
		t.Fatal(err)
	}
	var def, use types.Object
	for id, obj := range a.Info.Defs {
		if id.Name == "F" {
			def = obj
		}
	}
	for id, obj := range b.Info.Uses {
		if id.Name == "F" {
			use = obj
		}
	}
	if def == nil || use != def {
		t.Fatalf("b's a.F resolves to %v, want a's own object %v", use, def)
	}
}
