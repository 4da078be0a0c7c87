package progcheck

import (
	"sort"
	"testing"

	"repro/internal/workload"
)

// TestAvoidingVariantsHaveNoDataBranches pins the structural claim the
// branch-avoiding graph kernels are built on: after predication, every
// remaining conditional branch is loop control (latch, exit, guard) or
// statically resolved — the verifier must find zero data-dependent
// branch sites. The branchy variant of the same kernel must keep at
// least one, or the pair no longer measures what it claims to.
func TestAvoidingVariantsHaveNoDataBranches(t *testing.T) {
	for _, scale := range []float64{0.25, 1.0} {
		for _, base := range workload.GraphPairNames() {
			branchy, err := workload.GraphByName(base)
			if err != nil {
				t.Fatal(err)
			}
			avoiding, err := workload.GraphByName(base + "-ba")
			if err != nil {
				t.Fatal(err)
			}

			check := func(g workload.GraphSpec) *Report {
				p, err := g.Build(scale)
				if err != nil {
					t.Fatalf("%s @ %g: build: %v", g.Name, scale, err)
				}
				r := Check(p)
				for _, f := range r.Findings {
					if f.Severity == SevError {
						t.Errorf("%s @ %g: error finding: %s", g.Name, scale, f)
					}
				}
				return r
			}

			if sites := dataDependentBranches(check(avoiding)); len(sites) != 0 {
				t.Errorf("%s-ba @ %g: %d data-dependent branch sites %v, want 0",
					base, scale, len(sites), sites)
			}
			if sites := dataDependentBranches(check(branchy)); len(sites) == 0 {
				t.Errorf("%s @ %g: branchy variant has no data-dependent branch sites; the pair is degenerate",
					base, scale)
			}
		}
	}
}

// dataDependentBranches returns the instruction indices of r's
// data-dependent conditional branches, sorted.
func dataDependentBranches(r *Report) []int {
	var out []int
	for i, c := range r.ClassifyBranches() {
		if c == BranchData {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
