package workload

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vm"
)

// runGraph executes one spec and returns its result read back from VM
// memory, failing the test on any build or runtime fault.
func runGraph(t *testing.T, g GraphSpec, scale float64) ([]int64, vm.Stats) {
	t.Helper()
	m, stats, err := g.RunInto(scale, nil, nil)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	if !stats.Halted {
		t.Fatalf("%s: did not halt", g.Name)
	}
	return g.Result(m), stats
}

// TestGraphDifferentialBranchyVsAvoiding is the core differential
// battery: for every kernel × generator in the registry, and for extra
// seeds beyond the registry's own, the branch-avoiding variant must
// compute the identical algorithmic result — BFS levels, CC labels,
// triangle counts read back from VM memory — as its branchy twin, and
// both must match the Go reference oracle.
func TestGraphDifferentialBranchyVsAvoiding(t *testing.T) {
	var specs []GraphSpec
	for _, g := range Graphs() {
		if g.Avoiding {
			continue
		}
		specs = append(specs, g)
		// Grid graphs are seed-free; re-seed the random generators to
		// prove the equivalence is structural, not a registry accident.
		if g.Kind != GraphGrid {
			for _, seed := range []uint64{101, 202, 303} {
				alt := g
				alt.Seed = seed
				specs = append(specs, alt)
			}
		}
	}
	for _, branchy := range specs {
		avoiding := branchy
		avoiding.Avoiding = true
		avoiding.Name = branchy.Name + "-ba"
		t.Run(branchy.PairName(), func(t *testing.T) {
			gotB, statsB := runGraph(t, branchy, 1.0)
			gotA, statsA := runGraph(t, avoiding, 1.0)
			want := branchy.Reference()
			if !reflect.DeepEqual(gotB, want) {
				t.Errorf("seed %d: branchy result diverges from reference:\n got %v\nwant %v", branchy.Seed, gotB, want)
			}
			if !reflect.DeepEqual(gotA, want) {
				t.Errorf("seed %d: branch-avoiding result diverges from reference:\n got %v\nwant %v", branchy.Seed, gotA, want)
			}
			if statsB.CondBranches == 0 || statsA.CondBranches == 0 {
				t.Errorf("seed %d: kernel executed no conditional branches (branchy %d, avoiding %d)",
					branchy.Seed, statsB.CondBranches, statsA.CondBranches)
			}
		})
	}
}

// TestGraphResultsStableAcrossScale proves repetition only extends the
// branch stream: the read-back result at scale 3 equals scale 1.
func TestGraphResultsStableAcrossScale(t *testing.T) {
	for _, g := range Graphs() {
		r1, _ := runGraph(t, g, 1.0)
		r3, s3 := runGraph(t, g, 3.0)
		if !reflect.DeepEqual(r1, r3) {
			t.Errorf("%s: result changed with scale:\n scale1 %v\n scale3 %v", g.Name, r1, r3)
		}
		if g.ScaledRepeat(3.0) <= g.ScaledRepeat(1.0) {
			t.Errorf("%s: scale 3 did not increase repetitions", g.Name)
		}
		if s3.CondBranches == 0 {
			t.Errorf("%s: no branches at scale 3", g.Name)
		}
	}
}

// TestGraphBuildDeterministic: one spec and scale always compile to a
// byte-identical program — instruction for instruction — across builds.
func TestGraphBuildDeterministic(t *testing.T) {
	for _, g := range Graphs() {
		p1, err := g.Build(1.0)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		p2, err := g.Build(1.0)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if !reflect.DeepEqual(p1.Code, p2.Code) || p1.MemWords != p2.MemWords {
			t.Errorf("%s: two builds of one spec differ", g.Name)
		}
	}
}

// TestGraphSeedChangesProgram: a different graph seed must change the
// emitted data section (the graph really is drawn from the seed).
func TestGraphSeedChangesProgram(t *testing.T) {
	g, err := GraphByName("bfs-uniform")
	if err != nil {
		t.Fatal(err)
	}
	alt := g
	alt.Seed = g.Seed + 1
	p1, err := g.Build(1.0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := alt.Build(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1.Code, p2.Code) {
		t.Error("different seeds produced identical programs")
	}
}

// TestGraphRegistry checks names are unique, lookups round-trip, every
// registry spec validates, and every pair has exactly two variants.
func TestGraphRegistry(t *testing.T) {
	seen := make(map[string]bool)
	variants := make(map[string]int)
	for _, g := range Graphs() {
		if seen[g.Name] {
			t.Errorf("duplicate graph name %q", g.Name)
		}
		seen[g.Name] = true
		variants[g.PairName()]++
		if err := g.Validate(); err != nil {
			t.Errorf("registry spec %s invalid: %v", g.Name, err)
		}
		got, err := GraphByName(g.Name)
		if err != nil {
			t.Errorf("GraphByName(%q): %v", g.Name, err)
		} else if got.Name != g.Name {
			t.Errorf("GraphByName(%q) returned %q", g.Name, got.Name)
		}
	}
	if len(GraphPairNames()) != 9 {
		t.Errorf("want 9 kernel×generator pairs, got %v", GraphPairNames())
	}
	for pair, n := range variants {
		if n != 2 {
			t.Errorf("pair %s has %d variants, want 2", pair, n)
		}
	}
	if _, err := GraphByName("no-such-graph"); err == nil {
		t.Error("GraphByName accepted an unknown name")
	}
}

// TestGraphValidateRejects covers the validation error space.
func TestGraphValidateRejects(t *testing.T) {
	base := GraphSpec{Name: "t", Kind: GraphUniform, Kernel: KernelBFS, Nodes: 16, Degree: 3, Repeat: 1}
	bad := []func(*GraphSpec){
		func(g *GraphSpec) { g.Kind = "torus" },
		func(g *GraphSpec) { g.Kernel = "pagerank" },
		func(g *GraphSpec) { g.Nodes = 1 },
		func(g *GraphSpec) { g.Nodes = maxGraphNodes + 1 },
		func(g *GraphSpec) { g.Degree = 0 },
		func(g *GraphSpec) { g.Degree = g.Nodes },
		func(g *GraphSpec) { g.Kind = GraphGrid; g.Nodes = 15 },
		func(g *GraphSpec) { g.Threshold = -1 },
		func(g *GraphSpec) { g.Repeat = 0 },
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec should validate: %v", err)
	}
	for i, mutate := range bad {
		g := base
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

// quickGraphSpec maps arbitrary fuzz values into a valid spec — the
// shared normalization of the quick property and the native fuzz
// target.
func quickGraphSpec(kind, kernel uint8, nodes, degree uint16, seed uint64, avoiding bool, threshold uint8) GraphSpec {
	kinds := []string{GraphUniform, GraphPowerLaw, GraphGrid}
	kernels := []string{KernelBFS, KernelCC, KernelTri}
	g := GraphSpec{
		Kind:     kinds[int(kind)%len(kinds)],
		Kernel:   kernels[int(kernel)%len(kernels)],
		Avoiding: avoiding,
		Seed:     seed,
		Repeat:   1,
	}
	n := 4 + int(nodes)%60 // [4, 64): small enough to execute in fuzz
	if g.Kind == GraphGrid {
		side := isqrt(n)
		if side < 2 {
			side = 2
		}
		n = side * side
	}
	g.Nodes = n
	g.Degree = 1 + int(degree)%(n-1)
	g.Threshold = int(threshold) % 8
	g.Name = g.PairName()
	if avoiding {
		g.Name += "-ba"
	}
	return g
}

// TestGraphBuildProperty: for fuzzed (kind, size, degree, seed)
// tuples, the normalized spec validates and its program passes
// program.Validate (Build runs it; a nil error certifies it).
func TestGraphBuildProperty(t *testing.T) {
	prop := func(kind, kernel uint8, nodes, degree uint16, seed uint64, avoiding bool, threshold uint8) bool {
		g := quickGraphSpec(kind, kernel, nodes, degree, seed, avoiding, threshold)
		if err := g.Validate(); err != nil {
			t.Logf("spec %+v: %v", g, err)
			return false
		}
		p, err := g.Build(1.0)
		if err != nil {
			t.Logf("build %+v: %v", g, err)
			return false
		}
		if err := p.Validate(); err != nil {
			t.Logf("validate %+v: %v", g, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
