package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// renderRun executes one fresh Suite end to end and renders its key
// formatted artifacts: the Table 2 text and a full allocation dump
// (entry index per PC plus the per-entry load vector) for one
// benchmark. Any source of run-to-run nondeterminism — map iteration
// leaking into output, unseeded randomness, wall-clock values — shows
// up as a byte difference between two runs.
func renderRun(t *testing.T, check bool) string {
	t.Helper()
	s := NewSuite(Config{Scale: 0.05, Check: check})

	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(RenderTable2(rows, false))

	a, err := s.Artifacts("li", workload.InputRef)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := core.Allocate(a.Profile, core.AllocationConfig{
		TableSize: 64,
		Threshold: s.cfg.Threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range alloc.Map.PCs() {
		fmt.Fprintf(&b, "%#x -> %d\n", pc, alloc.Map.EntryFor(pc))
	}
	occupied, maxLoad := alloc.Map.LoadStats()
	fmt.Fprintf(&b, "load %d occupied, max %d\n", occupied, maxLoad)
	return b.String()
}

// TestSuiteOutputDeterministic runs the suite twice from scratch and
// requires byte-identical formatted output. The second run also enables
// the artifact verifiers, so it doubles as an integration test that
// -check passes on real (non-synthetic) benchmark artifacts and does
// not perturb results.
func TestSuiteOutputDeterministic(t *testing.T) {
	first := renderRun(t, false)
	second := renderRun(t, true)
	if first != second {
		t.Fatalf("suite output differs between identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "li") {
		t.Fatalf("rendered output missing expected benchmark row:\n%s", first)
	}
}
