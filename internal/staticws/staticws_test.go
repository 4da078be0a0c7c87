package staticws

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/progcheck"
	"repro/internal/program"
	"repro/internal/workload"
)

func TestWeight(t *testing.T) {
	if got := Weight(0); got != 0 {
		t.Errorf("Weight(0) = %d, want 0", got)
	}
	if got := Weight(-3); got != 0 {
		t.Errorf("Weight(-3) = %d, want 0", got)
	}
	if got := Weight(1); got != core.DefaultThreshold {
		t.Errorf("Weight(1) = %d, want the default pruning threshold %d", got, core.DefaultThreshold)
	}
	if got, want := Weight(2), uint64(core.DefaultThreshold)*core.DefaultThreshold; got != want {
		t.Errorf("Weight(2) = %d, want %d", got, want)
	}
	// Beyond the cap the weight saturates instead of overflowing.
	if Weight(depthCap) != Weight(depthCap+20) {
		t.Errorf("Weight must saturate at depthCap: %d != %d", Weight(depthCap), Weight(depthCap+20))
	}
}

// buildLoopWithCalls builds the package's reference fixture: a counted
// loop calling two leaf functions (each with one forward-skip branch),
// followed by one loop-free branch.
//
//	main:  li r16, 5
//	top:   call f1
//	       call f2
//	       addi r16, r16, -1
//	       bne r16, zero, top    ; latch
//	       rand r1
//	       bgez r1, end          ; loop-free
//	       nop
//	end:   halt
//	f1:    rand r2 / bgez r2, s1 / nop / s1: ret
//	f2:    rand r3 / bltz r3, s2 / nop / s2: ret
func buildLoopWithCalls(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("loopcalls")
	top := b.NewLabel()
	end := b.NewLabel()
	f1 := b.NewLabel()
	f2 := b.NewLabel()
	s1 := b.NewLabel()
	s2 := b.NewLabel()

	b.LoadImm(16, 5)
	b.Bind(top)
	b.Call(f1)
	b.Call(f2)
	b.AddI(16, 16, -1)
	b.Bne(16, isa.RZero, top)
	b.Rand(1)
	b.Bgez(1, end)
	b.Nop()
	b.Bind(end)
	b.Halt()

	b.Bind(f1)
	b.Rand(2)
	b.Bgez(2, s1)
	b.Nop()
	b.Bind(s1)
	b.Ret()

	b.Bind(f2)
	b.Rand(3)
	b.Bltz(3, s2)
	b.Nop()
	b.Bind(s2)
	b.Ret()

	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFixtureConflicts(t *testing.T) {
	p := buildLoopWithCalls(t)
	est, err := Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(est.Profile.PCs, p.CondBranchPCs()) {
		t.Fatalf("node set %v != CondBranchPCs %v", est.Profile.PCs, p.CondBranchPCs())
	}

	// Identify the branches by opcode/position.
	var latch, free, leaf1, leaf2 int32 = -1, -1, -1, -1
	for id, pc := range est.Profile.PCs {
		in := p.Code[isa.IndexOf(pc)]
		switch {
		case in.Op == isa.OpBne:
			latch = int32(id)
		case in.Op == isa.OpBltz:
			leaf2 = int32(id)
		case in.Op == isa.OpBgez && in.Rs == 1:
			free = int32(id)
		case in.Op == isa.OpBgez && in.Rs == 2:
			leaf1 = int32(id)
		}
	}
	if latch < 0 || free < 0 || leaf1 < 0 || leaf2 < 0 {
		t.Fatalf("fixture branches not all found: latch=%d free=%d leaf1=%d leaf2=%d", latch, free, leaf1, leaf2)
	}

	// The latch and both leaf branches (pulled into the loop through the
	// calls) conflict pairwise at depth-1 weight; the loop-free branch
	// conflicts with nothing.
	wantPairs := map[uint64]uint64{
		profile.PairKey(latch, leaf1): Weight(1),
		profile.PairKey(latch, leaf2): Weight(1),
		profile.PairKey(leaf1, leaf2): Weight(1),
	}
	got := map[uint64]uint64{}
	for _, pc := range est.Profile.SortedPairs() {
		got[profile.PairKey(pc.A, pc.B)] = pc.Count
	}
	if !reflect.DeepEqual(got, wantPairs) {
		t.Errorf("static pairs = %v, want %v", got, wantPairs)
	}

	// Execution estimates: loop members at Weight(1), the loop-free
	// branch at 1.
	for _, id := range []int32{latch, leaf1, leaf2} {
		if est.Profile.Exec[id] != Weight(1) {
			t.Errorf("Exec[%d] = %d, want %d", id, est.Profile.Exec[id], Weight(1))
		}
		if est.Depth[id] != 1 {
			t.Errorf("Depth[%d] = %d, want 1", id, est.Depth[id])
		}
	}
	if est.Profile.Exec[free] != 2 || est.Depth[free] != 0 {
		t.Errorf("loop-free branch: Exec=%d Depth=%d, want 2/0", est.Profile.Exec[free], est.Depth[free])
	}
	// The half-taken estimate keeps unknown-bias branches mixed under
	// the default classifier thresholds.
	if cls := classify.Classify(est.Profile, classify.Default()); cls.Classes[free] != classify.Mixed {
		t.Errorf("loop-free unknown branch classified %v, want Mixed", cls.Classes[free])
	}

	// Bias idioms: the induction-variable latch is biased-taken, the
	// rest match no idiom.
	if est.Bias[latch] != BiasTaken {
		t.Errorf("latch bias = %v, want biased-taken", est.Bias[latch])
	}
	for _, id := range []int32{free, leaf1, leaf2} {
		if est.Bias[id] != BiasUnknown {
			t.Errorf("branch %d bias = %v, want unknown", id, est.Bias[id])
		}
	}

	// The pseudo-profile's Taken counts land the latch in the
	// biased-taken class under the default thresholds.
	cls := classify.Classify(est.Profile, classify.Default())
	if cls.Classes[latch] != classify.BiasedTaken {
		t.Errorf("classified latch = %v, want BiasedTaken", cls.Classes[latch])
	}
}

// TestNestedDepthWeights checks the coreDefault^depth weight model on a
// doubly nested loop: pairs sharing only the outer loop get Weight(1),
// pairs inside the inner loop get Weight(2).
func TestNestedDepthWeights(t *testing.T) {
	b := program.NewBuilder("nestedweights")
	outer := b.NewLabel()
	inner := b.NewLabel()
	skip := b.NewLabel()

	b.LoadImm(1, 4)
	b.Bind(outer)
	b.LoadImm(2, 3)
	b.Bind(inner)
	b.Rand(3)
	b.Bgez(3, skip)
	b.Nop()
	b.Bind(skip)
	b.AddI(2, 2, -1)
	b.Bne(2, isa.RZero, inner)
	b.AddI(1, 1, -1)
	b.Bne(1, isa.RZero, outer)
	b.Halt()

	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	est, err := Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}

	var innerSkip, innerLatch, outerLatch int32 = -1, -1, -1
	for id, pc := range est.Profile.PCs {
		in := p.Code[isa.IndexOf(pc)]
		switch {
		case in.Op == isa.OpBgez:
			innerSkip = int32(id)
		case in.Op == isa.OpBne && in.Rs == 2:
			innerLatch = int32(id)
		case in.Op == isa.OpBne && in.Rs == 1:
			outerLatch = int32(id)
		}
	}
	if innerSkip < 0 || innerLatch < 0 || outerLatch < 0 {
		t.Fatal("fixture branches not all found")
	}

	wantPairs := map[uint64]uint64{
		profile.PairKey(innerSkip, innerLatch):  Weight(2),
		profile.PairKey(outerLatch, innerSkip):  Weight(1),
		profile.PairKey(outerLatch, innerLatch): Weight(1),
	}
	got := map[uint64]uint64{}
	for _, pc := range est.Profile.SortedPairs() {
		got[profile.PairKey(pc.A, pc.B)] = pc.Count
	}
	if !reflect.DeepEqual(got, wantPairs) {
		t.Errorf("static pairs = %v, want %v", got, wantPairs)
	}

	if est.Depth[innerSkip] != 2 || est.Depth[innerLatch] != 2 {
		t.Errorf("inner depths = %d/%d, want 2/2", est.Depth[innerSkip], est.Depth[innerLatch])
	}
	if est.Depth[outerLatch] != 1 {
		t.Errorf("outer latch depth = %d, want 1", est.Depth[outerLatch])
	}
	if est.MaxDepth() != 2 {
		t.Errorf("MaxDepth = %d, want 2", est.MaxDepth())
	}
	// Both latches are induction-variable compares back to their own
	// headers: biased-taken. The inner skip leaves no loop: unknown.
	if est.Bias[innerLatch] != BiasTaken || est.Bias[outerLatch] != BiasTaken {
		t.Errorf("latch biases = %v/%v, want biased-taken both", est.Bias[innerLatch], est.Bias[outerLatch])
	}
}

// seedBenchmarks is the original SPECint95 six the repo started from;
// profile-free allocation must clear the verifiers on all of them.
var seedBenchmarks = []string{"compress", "gcc", "ijpeg", "li", "m88ksim", "perl"}

// TestSeedBenchmarksStaticAllocation runs the full static pipeline on
// every seed benchmark and holds the result to the PR 1 artifact
// verifiers — the acceptance bar for profile-free allocation.
func TestSeedBenchmarksStaticAllocation(t *testing.T) {
	scale := 0.25
	for _, name := range seedBenchmarks {
		name := name
		t.Run(name, func(t *testing.T) {
			if name == "gcc" && testing.Short() {
				// gcc's static graph is as large at any scale (program
				// structure does not shrink with the dynamic schedule).
				t.Skip("gcc static pipeline is slow under -short")
			}
			spec, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := spec.Build(workload.InputRef, scale)
			if err != nil {
				t.Fatal(err)
			}
			est, err := Analyze(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(est.Profile.PCs, p.CondBranchPCs()) {
				t.Fatal("static node set diverges from the program's conditional branches")
			}

			g := est.Profile.BuildGraph(core.DefaultThreshold)
			if err := analysis.VerifyGraph(g, core.DefaultThreshold); err != nil {
				t.Errorf("VerifyGraph: %v", err)
			}
			res, err := core.Analyze(est.Profile, core.AnalysisConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := analysis.VerifyWorkingSets(res); err != nil {
				t.Errorf("VerifyWorkingSets: %v", err)
			}

			for _, size := range []int{16, 128, 1024} {
				alloc, err := core.Allocate(est.Profile, core.AllocationConfig{TableSize: size})
				if err != nil {
					t.Fatalf("Allocate(%d): %v", size, err)
				}
				if err := analysis.VerifyAllocation(est.Profile, alloc); err != nil {
					t.Errorf("VerifyAllocation(%d): %v", size, err)
				}
			}
			// Classified allocation exercises the bias-driven reserved
			// entries on the static Taken estimates.
			alloc, err := core.Allocate(est.Profile, core.AllocationConfig{TableSize: 128, UseClassification: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := analysis.VerifyAllocation(est.Profile, alloc); err != nil {
				t.Errorf("VerifyAllocation(classified): %v", err)
			}

			// Structural sanity on the generated workloads: every scene
			// rotation latch exists, so loops (and loop branches) must be
			// found, all at depth >= 1.
			if est.LoopBranches() == 0 {
				t.Error("no loop branches found in a generated benchmark")
			}
			_, taken, _ := est.BiasCounts()
			if taken == 0 {
				t.Error("no biased-taken latches found; scene rotation loops must classify")
			}
		})
	}
}

// TestGccFullScale runs the most expensive benchmark at full scale —
// the same configuration the experiment harness uses.
func TestGccFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale gcc static analysis is slow under -short")
	}
	spec, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build(workload.InputRef, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := core.Allocate(est.Profile, core.AllocationConfig{TableSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.VerifyAllocation(est.Profile, alloc); err != nil {
		t.Errorf("VerifyAllocation: %v", err)
	}
}

// TestDeterminism: two analyses of the same program must agree exactly,
// byte for byte — allocation decisions depend on it.
func TestDeterminism(t *testing.T) {
	spec, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build(workload.InputRef, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Profile.PCs, b.Profile.PCs) ||
		!reflect.DeepEqual(a.Profile.Exec, b.Profile.Exec) ||
		!reflect.DeepEqual(a.Profile.Taken, b.Profile.Taken) {
		t.Fatal("static profiles diverge between runs")
	}
	if !reflect.DeepEqual(a.Profile.SortedPairs(), b.Profile.SortedPairs()) {
		t.Fatal("static pair weights diverge between runs")
	}
	if !reflect.DeepEqual(a.Depth, b.Depth) || !reflect.DeepEqual(a.Bias, b.Bias) {
		t.Fatal("depth/bias estimates diverge between runs")
	}
	if a.Describe() != b.Describe() {
		t.Fatal("Describe diverges between runs")
	}
}

// TestAnalyzeFactsPrune: verifier facts remove proven branches from
// the conflict graph without perturbing the node set.
func TestAnalyzeFactsPrune(t *testing.T) {
	p := buildLoopWithCalls(t)
	plain, err := Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var latch, free, leaf1, leaf2 int32 = -1, -1, -1, -1
	for id, pc := range plain.Profile.PCs {
		in := p.Code[isa.IndexOf(pc)]
		switch {
		case in.Op == isa.OpBne:
			latch = int32(id)
		case in.Op == isa.OpBltz:
			leaf2 = int32(id)
		case in.Op == isa.OpBgez && in.Rs == 1:
			free = int32(id)
		case in.Op == isa.OpBgez && in.Rs == 2:
			leaf1 = int32(id)
		}
	}

	// Pretend the verifier proved leaf1 never taken and the loop-free
	// branch dead (it can't in this fixture — rand feeds them — but the
	// pruning contract doesn't care where the facts came from).
	n := len(p.Code)
	facts := &progcheck.Facts{
		Unreachable:   make([]bool, n),
		ResolvedKnown: make([]bool, n),
		ResolvedTaken: make([]bool, n),
	}
	facts.ResolvedKnown[isa.IndexOf(plain.Profile.PCs[leaf1])] = true
	facts.Unreachable[isa.IndexOf(plain.Profile.PCs[free])] = true
	est, err := Analyze(p, facts)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(est.Profile.PCs, p.CondBranchPCs()) {
		t.Fatalf("node set changed under facts: %v != %v", est.Profile.PCs, p.CondBranchPCs())
	}
	if est.PrunedResolved != 1 || est.PrunedDead != 1 {
		t.Errorf("pruned counts = %d resolved, %d dead; want 1, 1", est.PrunedResolved, est.PrunedDead)
	}

	// Only the latch and the unproven leaf still conflict.
	wantPairs := map[uint64]uint64{
		profile.PairKey(latch, leaf2): Weight(1),
	}
	got := map[uint64]uint64{}
	for _, pc := range est.Profile.SortedPairs() {
		got[profile.PairKey(pc.A, pc.B)] = pc.Count
	}
	if !reflect.DeepEqual(got, wantPairs) {
		t.Errorf("pruned pairs = %v, want %v", got, wantPairs)
	}

	// The resolved branch keeps its execution estimate and reports its
	// proven direction; the dead branch reports zero executions.
	if est.Profile.Exec[leaf1] != Weight(1) || est.Profile.Taken[leaf1] != 0 {
		t.Errorf("resolved leaf: Exec=%d Taken=%d, want %d/0",
			est.Profile.Exec[leaf1], est.Profile.Taken[leaf1], Weight(1))
	}
	if est.Bias[leaf1] != BiasNotTaken {
		t.Errorf("resolved leaf bias = %v, want biased-not-taken", est.Bias[leaf1])
	}
	if est.Profile.Exec[free] != 0 || est.Profile.Taken[free] != 0 {
		t.Errorf("dead branch: Exec=%d Taken=%d, want 0/0", est.Profile.Exec[free], est.Profile.Taken[free])
	}

	// Unpruned branches are untouched.
	for _, id := range []int32{latch, leaf2} {
		if est.Profile.Exec[id] != plain.Profile.Exec[id] || est.Profile.Taken[id] != plain.Profile.Taken[id] {
			t.Errorf("unpruned branch %d perturbed: Exec %d→%d Taken %d→%d", id,
				plain.Profile.Exec[id], est.Profile.Exec[id], plain.Profile.Taken[id], est.Profile.Taken[id])
		}
	}

	// The verifier-facts path still yields a profile the graph and
	// allocation artifact checks accept.
	g := est.Profile.BuildGraph(core.DefaultThreshold)
	if err := analysis.VerifyGraph(g, core.DefaultThreshold); err != nil {
		t.Errorf("VerifyGraph: %v", err)
	}
	alloc, err := core.Allocate(est.Profile, core.AllocationConfig{TableSize: 128})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := analysis.VerifyAllocation(est.Profile, alloc); err != nil {
		t.Errorf("VerifyAllocation: %v", err)
	}
}
