package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/vm"
)

// eventLog is a sink that keeps every event of a run.
type eventLog []trace.Event

func (l *eventLog) Branch(pc uint64, taken bool, icount uint64) {
	*l = append(*l, trace.Event{PC: pc, ICount: icount, Taken: taken})
}

// events runs s and returns its branch stream and VM statistics.
func events(t *testing.T, s Spec, cfg RunConfig) ([]trace.Event, vm.Stats) {
	t.Helper()
	var evs eventLog
	stats, err := s.RunInto(cfg, &evs)
	if err != nil {
		t.Fatal(err)
	}
	return evs, stats
}

// small returns a fast-to-run spec for structural tests.
func small() Spec {
	return Spec{
		Name: "small", Description: "test workload",
		Functions: 12, BranchesPerFunc: 6, FuncsPerScene: 3, Scenes: 5, Mode: Windowed,
		Visits: 40, Rotations: 10, ZipfS: 0.8,
		Mix:             BiasMix{BiasedTaken: 0.30, BiasedNotTaken: 0.20, Periodic: 0.38, Random: 0.12},
		AnalyzeCoverage: 0.999,
	}
}

func TestAllSpecsValidate(t *testing.T) {
	for _, s := range Specs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSuiteHasThePaperBenchmarks(t *testing.T) {
	want := []string{"compress", "gcc", "ijpeg", "li", "m88ksim", "perl",
		"chess", "gs", "pgp", "plot", "python", "ss", "tex"}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("benchmark %d = %s, want %s", i, names[i], n)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("gcc")
	if err != nil || s.Name != "gcc" {
		t.Fatalf("ByName(gcc) = %v, %v", s.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Functions = 0 },
		func(s *Spec) { s.BranchesPerFunc = 0 },
		func(s *Spec) { s.FuncsPerScene = 0 },
		func(s *Spec) { s.FuncsPerScene = s.Functions + 1 },
		func(s *Spec) { s.Scenes = 0 },
		func(s *Spec) { s.Visits = 0 },
		func(s *Spec) { s.Rotations = 0 },
		func(s *Spec) { s.ZipfS = 0 },
		func(s *Spec) { s.Mix = BiasMix{BiasedTaken: 0.5} },
		func(s *Spec) { s.AnalyzeCoverage = 0 },
		func(s *Spec) { s.AnalyzeCoverage = 1.5 },
	}
	for i, mutate := range cases {
		s := small()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestBuildProducesValidProgram(t *testing.T) {
	p, err := small().Build(InputRef, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Static branches: leaf sites + 1 rotation branch per scene.
	want := small().StaticBranches()
	if got := p.NumCondBranches(); got != want {
		t.Fatalf("static branches %d, want %d", got, want)
	}
}

// TestBuildRejectsBadScale: a scale that names no size is an error in
// both builders, and 0 keeps its documented meaning, 1.0.
func TestBuildRejectsBadScale(t *testing.T) {
	graph := Graphs()[0]
	for _, tc := range []struct {
		scale float64
		ok    bool
	}{
		{0, true},
		{0.5, true},
		{-1, false},
		{-0.001, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		_, err := small().Build(InputRef, tc.scale)
		if (err == nil) != tc.ok {
			t.Errorf("Spec.Build(scale %v) error = %v, want ok=%v", tc.scale, err, tc.ok)
		}
		_, err = graph.Build(tc.scale)
		if (err == nil) != tc.ok {
			t.Errorf("GraphSpec.Build(scale %v) error = %v, want ok=%v", tc.scale, err, tc.ok)
		}
	}

	zero, err := small().Build(InputRef, 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := small().Build(InputRef, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero.Code, one.Code) {
		t.Error("Spec.Build at scale 0 differs from scale 1.0")
	}
	gzero, err := graph.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := graph.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gzero.Code, gone.Code) {
		t.Error("GraphSpec.Build at scale 0 differs from scale 1.0")
	}
}

func TestBuildDeterministic(t *testing.T) {
	s := small()
	p1, err := s.Build(InputRef, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Build(InputRef, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Code) != len(p2.Code) {
		t.Fatal("non-deterministic code size")
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestInputSetChangesScheduleNotCode(t *testing.T) {
	s := small()
	pa, err := s.Build(InputA, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := s.Build(InputB, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Leaf and scene bodies are identical; only the main schedule (the
	// first Visits instructions) may differ.
	if len(pa.Code) != len(pb.Code) {
		t.Fatal("input set changed program size")
	}
	differs := false
	for i := range pa.Code {
		if pa.Code[i] != pb.Code[i] {
			differs = true
			if i > s.Visits {
				t.Fatalf("input set changed code body at %d (schedule is %d calls)", i, s.Visits)
			}
		}
	}
	if !differs {
		t.Fatal("input sets produced identical schedules")
	}
}

func TestRunProducesTrace(t *testing.T) {
	evs, stats := events(t, small(), RunConfig{})
	if !stats.Halted {
		t.Fatal("program did not halt")
	}
	if uint64(len(evs)) != stats.CondBranches {
		t.Fatalf("stream events %d != stats %d", len(evs), stats.CondBranches)
	}
	// Time stamps strictly increase.
	for i := 1; i < len(evs); i++ {
		if evs[i].ICount <= evs[i-1].ICount {
			t.Fatal("icounts not increasing")
		}
	}
	if last := evs[len(evs)-1].ICount; last >= stats.Instructions {
		t.Fatalf("last time stamp %d not below the run's %d instructions", last, stats.Instructions)
	}
}

// TestRunDeterministic checks the property every two-pass consumer
// relies on: executing a benchmark twice delivers one stream.
func TestRunDeterministic(t *testing.T) {
	e1, s1 := events(t, small(), RunConfig{})
	e2, s2 := events(t, small(), RunConfig{})
	if s1 != s2 {
		t.Fatalf("VM stats differ: %+v vs %+v", s1, s2)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatal("two runs delivered different streams")
	}
}

func TestDynamicBranchesEstimate(t *testing.T) {
	s := small()
	stats, err := s.RunInto(RunConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := s.DynamicBranches(1.0)
	got := stats.CondBranches
	// The estimate ignores biased/periodic variations in none of the
	// branch sites (all sites execute each rotation), so it should be
	// nearly exact.
	diff := float64(got) - float64(est)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(est) > 0.02 {
		t.Fatalf("estimate %d vs actual %d", est, got)
	}
}

func TestScaleGrowsRun(t *testing.T) {
	s := small()
	small1, err := s.RunInto(RunConfig{Scale: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.RunInto(RunConfig{Scale: 2.0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if big.CondBranches <= small1.CondBranches {
		t.Fatalf("scale 2.0 (%d) not bigger than 0.5 (%d)", big.CondBranches, small1.CondBranches)
	}
}

func TestBiasMixIsRealized(t *testing.T) {
	// The generated biased branches must actually classify as biased at
	// the paper's 99%/1% thresholds, and the realized mix must roughly
	// match the spec.
	s := small()
	s.Visits = 200 // more executions for tight rate estimates
	var freq trace.FreqCounter
	if _, err := s.RunInto(RunConfig{}, &freq); err != nil {
		t.Fatal(err)
	}
	th := classify.Default()
	var bt, bnt, mix int
	for _, st := range freq.Stats() {
		if st.Count < 100 {
			continue
		}
		switch th.Of(st.Count, st.Taken) {
		case classify.BiasedTaken:
			bt++
		case classify.BiasedNotTaken:
			bnt++
		default:
			mix++
		}
	}
	total := bt + bnt + mix
	if total == 0 {
		t.Fatal("no branches executed enough")
	}
	btFrac := float64(bt) / float64(total)
	bntFrac := float64(bnt) / float64(total)
	// Rotation-loop branches (scene count) are biased taken; leaf
	// fractions are per the mix. Allow generous tolerance for sampling.
	if btFrac < s.Mix.BiasedTaken-0.12 || btFrac > s.Mix.BiasedTaken+0.20 {
		t.Fatalf("biased-taken fraction %.2f, spec %.2f", btFrac, s.Mix.BiasedTaken)
	}
	if bntFrac < s.Mix.BiasedNotTaken-0.12 || bntFrac > s.Mix.BiasedNotTaken+0.12 {
		t.Fatalf("biased-not-taken fraction %.2f, spec %.2f", bntFrac, s.Mix.BiasedNotTaken)
	}
}

// TestProfileMatchesRun checks the profiling run: a profiler fed by
// RunInto sees every conditional branch the VM retires.
func TestProfileMatchesRun(t *testing.T) {
	s := small()
	p := profile.NewProfiler(s.Name, InputRef.Name)
	stats, err := s.RunInto(RunConfig{}, p)
	if err != nil {
		t.Fatal(err)
	}
	prof := p.Profile()
	var dynamic uint64
	for _, e := range prof.Exec {
		dynamic += e
	}
	if dynamic != stats.CondBranches {
		t.Fatalf("profile branches %d != stats %d", dynamic, stats.CondBranches)
	}
	if prof.NumBranches() == 0 || prof.Pairs.Len() == 0 {
		t.Fatal("profile empty")
	}
}

func TestRunIntoCustomSink(t *testing.T) {
	count := 0
	sink := vm.BranchFunc(func(uint64, bool, uint64) { count++ })
	stats, err := small().RunInto(RunConfig{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(count) != stats.CondBranches {
		t.Fatalf("sink saw %d of %d", count, stats.CondBranches)
	}
}

func TestClusteredMode(t *testing.T) {
	s := small()
	s.Mode = Clustered
	stats, err := s.RunInto(RunConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CondBranches == 0 {
		t.Fatal("clustered run empty")
	}
}

func TestSceneModeString(t *testing.T) {
	if Windowed.String() != "windowed" || Clustered.String() != "clustered" {
		t.Fatal("mode names wrong")
	}
}

func TestWorkingSetSizeEstimate(t *testing.T) {
	s := small()
	if s.WorkingSetSize() != 3*6+1 {
		t.Fatalf("working set size %d", s.WorkingSetSize())
	}
}

func TestStaticBranchEstimates(t *testing.T) {
	for _, s := range Specs() {
		if s.StaticBranches() < 100 {
			t.Errorf("%s: suspiciously few static branches (%d)", s.Name, s.StaticBranches())
		}
	}
	// gcc must be the largest static population, as in the paper.
	gcc, _ := ByName("gcc")
	for _, s := range Specs() {
		if s.Name != "gcc" && s.StaticBranches() >= gcc.StaticBranches() {
			t.Errorf("%s static branches (%d) >= gcc (%d)", s.Name, s.StaticBranches(), gcc.StaticBranches())
		}
	}
}

func TestDifferentInputsDifferentTraces(t *testing.T) {
	s := small()
	ea, _ := events(t, s, RunConfig{Input: InputA})
	eb, _ := events(t, s, RunConfig{Input: InputB})
	if reflect.DeepEqual(ea, eb) {
		t.Fatal("different inputs produced identical streams")
	}
}

// Guard against accidental spec edits: the registry's headline
// geometry drives every experiment's shape.
func TestSpecGeometryPins(t *testing.T) {
	gcc, _ := ByName("gcc")
	if gcc.StaticBranches() < 14000 {
		t.Errorf("gcc static branches %d; the paper's gcc has >16k", gcc.StaticBranches())
	}
	compress, _ := ByName("compress")
	if ws := compress.WorkingSetSize(); ws < 30 || ws > 55 {
		t.Errorf("compress working set %d, paper reports ~41", ws)
	}
	python, _ := ByName("python")
	if ws := python.WorkingSetSize(); ws < 250 {
		t.Errorf("python working set %d, paper reports ~347", ws)
	}
}

func TestFilteredCoverageMatchesSpecTargets(t *testing.T) {
	// The frequency filter must be able to hit each spec's coverage
	// target (Table 1 column): verified here on one mid-sized spec.
	s := small()
	var freq trace.FreqCounter
	if _, err := s.RunInto(RunConfig{}, &freq); err != nil {
		t.Fatal(err)
	}
	res := trace.FilterByCoverage(freq.Stats(), s.AnalyzeCoverage)
	if res.Coverage() < s.AnalyzeCoverage-0.01 {
		t.Fatalf("coverage %.4f below target %.4f", res.Coverage(), s.AnalyzeCoverage)
	}
	if len(res.Keep) != res.StaticKept {
		t.Fatalf("keep set has %d branches, StaticKept %d", len(res.Keep), res.StaticKept)
	}
}

func TestGeneratedProgramFormatsRoundTrip(t *testing.T) {
	// The assembly text format must round-trip a full generated
	// benchmark, and the reassembled program must produce an identical
	// branch trace.
	s := small()
	orig, err := s.Build(InputRef, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := program.Parse(strings.NewReader(program.Format(orig)))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Code) != len(orig.Code) {
		t.Fatalf("size changed: %d vs %d", len(parsed.Code), len(orig.Code))
	}
	for i := range orig.Code {
		if parsed.Code[i] != orig.Code[i] {
			t.Fatalf("inst %d changed: %v vs %v", i, parsed.Code[i], orig.Code[i])
		}
	}

	var ea, eb eventLog
	if _, err := vm.Run(orig, vm.Config{DataSeed: 3, Sink: &ea}); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(parsed, vm.Config{DataSeed: 3, Sink: &eb}); err != nil {
		t.Fatal(err)
	}
	if len(ea) != len(eb) {
		t.Fatalf("stream lengths differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestEveryBenchmarkRunsAtTinyScale(t *testing.T) {
	// Smoke the whole suite: every registered benchmark must build,
	// validate, halt, and produce branches matching its estimate.
	for _, s := range Specs() {
		stats, err := s.RunInto(RunConfig{Scale: 0.02}, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !stats.Halted {
			t.Errorf("%s: did not halt", s.Name)
		}
		if stats.CondBranches == 0 {
			t.Errorf("%s: no branches", s.Name)
		}
	}
}
