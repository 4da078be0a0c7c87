package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/staticws"
	"repro/internal/workload"
)

// staticCoverK is the BHT size the coverage assertion allocates into:
// every dynamic working set must land in at most this many static color
// classes (entries). 64 matches the differential suite's allocation
// size, well under the 1024-entry baseline.
const staticCoverK = 64

// TestStaticCoversDynamicWorkingSets is the static-vs-dynamic
// differential: on every seed benchmark, the static conflict graph's
// node set must be exactly the program's conditional branches, and
// every working set the dynamic analysis finds must be covered by the
// profile-free allocation — each member allocated, the whole set spread
// over at most staticCoverK entries.
func TestStaticCoversDynamicWorkingSets(t *testing.T) {
	s := NewSuite(Config{Scale: 0.05, Workers: 2})
	totalSets := 0
	for _, name := range StaticBenchmarks {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := s.Artifacts(name, workload.InputRef)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := a.Spec.Build(a.Input, s.cfg.Scale)
			if err != nil {
				t.Fatal(err)
			}
			est, err := staticws.Analyze(prog, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Node-set equality: the static estimate covers exactly the
			// program's conditional branches — no invented nodes, none
			// missed.
			if !reflect.DeepEqual(est.Profile.PCs, prog.CondBranchPCs()) {
				t.Fatalf("static node set (%d) != CondBranchPCs (%d)",
					len(est.Profile.PCs), len(prog.CondBranchPCs()))
			}
			// The dynamic profile only sees executed branches; every one
			// of them must be a static node.
			staticPC := make(map[uint64]bool, len(est.Profile.PCs))
			for _, pc := range est.Profile.PCs {
				staticPC[pc] = true
			}
			for _, pc := range a.Profile.PCs {
				if !staticPC[pc] {
					t.Fatalf("dynamic branch %#x missing from the static node set", pc)
				}
			}

			alloc, err := core.Allocate(est.Profile, core.AllocationConfig{TableSize: staticCoverK})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Analyze(a.Profile, core.AnalysisConfig{})
			if err != nil {
				t.Fatal(err)
			}
			// At this scale some benchmarks (gcc) have no pair above the
			// pruning threshold; the aggregate check below keeps the test
			// from passing vacuously across the whole suite.
			totalSets += len(res.Sets)
			for i, ws := range res.Sets {
				entries := make(map[int]bool)
				for _, id := range ws.Branches {
					pc := a.Profile.PCs[id]
					entry, ok := alloc.Map.Entry(pc)
					if !ok {
						t.Fatalf("set %d: branch %#x not allocated by the static map", i, pc)
					}
					entries[entry] = true
				}
				if len(entries) > staticCoverK {
					t.Errorf("set %d: %d members spread over %d entries, want <= %d",
						i, len(ws.Branches), len(entries), staticCoverK)
				}
			}
		})
	}
	if totalSets == 0 {
		t.Fatal("no benchmark produced a dynamic working set; the coverage assertion was vacuous")
	}
}

// TestStaticComparisonDeterminism: the rendered static section must be
// byte-identical across worker counts, like every other harness output.
func TestStaticComparisonDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full static comparison twice")
	}
	var outs []string
	for _, workers := range []int{1, 3} {
		s := NewSuite(Config{Scale: 0.05, Workers: workers})
		var buf bytes.Buffer
		if err := RunStatic(s, &buf, false); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Errorf("static section differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=3 ---\n%s",
			outs[0], outs[1])
	}
}
