// Package harness defines and runs the paper's experiments: Tables 1-4
// and Figures 3-4 (see DESIGN.md's per-experiment index). A Suite caches
// the expensive per-benchmark artifacts — the branch statistics, the
// frequency filter, and the interleave profile — so that every table and
// figure derived from one benchmark shares a single run, as the paper's
// methodology does.
//
// The suite is an embarrassingly parallel pipeline, like the
// trace-driven simulators it reproduces: benchmarks are independent, so
// a worker pool (Config.Workers) computes per-benchmark artifacts and
// per-row experiment results concurrently, while every table and figure
// is assembled in fixed benchmark order — rendered output is
// byte-identical for any worker count. Execution is streamed: the VM's
// branch stream fans out directly to the analysis consumers, and no
// full trace is retained (see DESIGN.md §10).
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Config controls a Suite.
type Config struct {
	// Scale multiplies workload schedule lengths; 0 means 1.0.
	Scale float64
	// Threshold is the conflict-edge pruning threshold; 0 means the
	// paper's 100.
	Threshold uint64
	// CliqueBudget bounds working-set enumeration; 0 means the package
	// default.
	CliqueBudget int
	// BaselineBHT is the conventional BHT size compared against
	// (paper: 1024).
	BaselineBHT int
	// PHTEntries is the second-level table size (paper: 4096).
	PHTEntries int
	// AllocBHTSizes are the allocated-BHT sizes of the figures
	// (paper: 16, 128, 1024).
	AllocBHTSizes []int
	// Check runs the internal/analysis artifact verifiers, failing the
	// experiment on any invariant violation: on the conflict graphs and
	// working-set extractions of Table 2 and of every individual-branch
	// analysis the ablation studies run (thresholds, definitions,
	// windows), on Table 3/4's required-size allocations and their
	// graphs, and on every allocation a predictor experiment simulates
	// (figures, zoo, graphs, extras, static). It also compares each
	// graph kernel's result against its Go reference. The grouped
	// ablation's supernode analysis is not verified. Enabled by the
	// tables CLI's -check flag and by tests.
	Check bool
	// Workers caps how many benchmarks are processed concurrently
	// across artifact computation, analysis, and predictor simulation;
	// 0 means GOMAXPROCS, 1 runs strictly serially. Suites running at
	// once each start their own workers, so a caller that runs several
	// (as wsanalyzed does, one per job) gives each Workers 1. Results
	// merge in fixed benchmark order, so rendered output does not
	// depend on it.
	Workers int
	// Deprecated: each profile and clique enumeration runs on its row's goroutine; this field is ignored and remains only because perfbench/ still sets it.
	ProfileShards int
	// Deprecated: the harness always streams; this field is ignored and remains only because perfbench/ still sets it.
	Fused bool
	// Progress, when non-nil, receives one line per completed step.
	// Lines from concurrent workers may interleave, but each line is
	// written atomically.
	Progress io.Writer
	// Metrics, when non-nil, instruments the whole pipeline: VM
	// throughput, profiler events and merges, clique enumeration effort,
	// predictor outcomes, and per-benchmark stage spans. Disabled (nil)
	// it costs nothing; enabled it never changes any rendered result
	// (the differential suite runs with it on).
	Metrics *obs.Metrics
	// ProgCheck verifies every compiled program with the static program
	// verifier (package progcheck) before it runs, failing the
	// computation on error-severity findings (provable out-of-bounds
	// accesses). Warn/info findings — dead code, resolved branches — are
	// reported through Progress but do not fail: the seed benchmarks
	// legitimately carry scene schedules that leave functions uncalled
	// at small scales. In the static comparison (RunStatic) the
	// verifier's proven facts also prune resolved and dead branches from
	// the compile-time conflict graph.
	ProgCheck bool
}

// Defaults fills unset fields with the paper's parameters.
func (c Config) Defaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Threshold == 0 {
		c.Threshold = core.DefaultThreshold
	}
	if c.BaselineBHT == 0 {
		c.BaselineBHT = 1024
	}
	if c.PHTEntries == 0 {
		c.PHTEntries = 4096
	}
	if len(c.AllocBHTSizes) == 0 {
		c.AllocBHTSizes = []int{16, 128, 1024}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Artifacts are the cached products of one benchmark run.
type Artifacts struct {
	Spec    workload.Spec
	Input   workload.InputSet
	VMStats vm.Stats
	// Filter is the frequency filter at the spec's coverage; its keep
	// set regenerates the filtered stream from a re-execution (see
	// Suite.replayFiltered).
	Filter trace.FilterResult
	// Profile is the interleave profile of the filtered stream.
	Profile *profile.Profile
}

// Suite runs experiments with shared per-benchmark caching. Methods are
// safe for concurrent use; concurrent requests for one benchmark share
// a single computation.
type Suite struct {
	cfg Config

	// artifacts and graphs cache the benchmarks' and the graph
	// benchmarks' runs, keyed by benchmark/input and by name.
	artifacts memo[*Artifacts]
	graphs    memo[*GraphArtifacts]

	progMu sync.Mutex
}

// NewSuite returns a Suite with cfg (unset fields defaulted).
func NewSuite(cfg Config) *Suite {
	return &Suite{cfg: cfg.Defaults()}
}

// Config returns the effective configuration.
func (s *Suite) Config() Config { return s.cfg }

func (s *Suite) progressf(format string, args ...any) {
	if s.cfg.Progress != nil {
		s.progMu.Lock()
		fmt.Fprintf(s.cfg.Progress, format+"\n", args...)
		s.progMu.Unlock()
	}
}

// dynamicBranches is the estimated dynamic branch count of a benchmark
// at the suite's scale, the heaviest-first key of mapOrdered; 0 for an
// unknown name, which the row itself reports.
func (s *Suite) dynamicBranches(name string) uint64 {
	spec, err := workload.ByName(name)
	if err != nil {
		return 0
	}
	return spec.DynamicBranches(s.cfg.Scale)
}

// byDynamicBranches weights row i by the dynamic branch count of
// benchmark names[i].
func (s *Suite) byDynamicBranches(names []string) func(int) uint64 {
	return func(i int) uint64 { return s.dynamicBranches(names[i]) }
}

// Artifacts runs (or returns the cached run of) one benchmark under one
// input set: execute, frequency-filter, and profile.
func (s *Suite) Artifacts(benchmark string, input workload.InputSet) (*Artifacts, error) {
	return s.artifacts.get(benchmark+"/"+input.Name, func() (*Artifacts, error) {
		return s.compute(benchmark, input)
	})
}

func (s *Suite) compute(benchmark string, input workload.InputSet) (*Artifacts, error) {
	spec, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	if s.cfg.ProgCheck {
		p, err := spec.Build(input, s.cfg.Scale)
		if err != nil {
			return nil, fmt.Errorf("harness: building %s: %w", spec.Name, err)
		}
		if _, err := s.verifyProgram(spec.Name+"/"+input.Name, p); err != nil {
			return nil, err
		}
	}

	// Two executions: a frequency pre-count pass selects the keep set,
	// then a second pass streams the filtered events straight into the
	// profiler. No event buffer is ever materialized.
	runCfg := workload.RunConfig{Input: input, Scale: s.cfg.Scale, Metrics: s.cfg.Metrics.VM()}
	s.progressf("run %s (pre-count, input %s, scale %.2f)", spec.Name, input.Name, s.cfg.Scale)
	execSpan := s.stageSpan(spec.Name, "execute")
	var freq trace.FreqCounter
	stats, err := spec.RunInto(runCfg, &freq)
	execSpan.End()
	if err != nil {
		return nil, fmt.Errorf("harness: running %s: %w", spec.Name, err)
	}
	filter := trace.FilterByCoverage(freq.Stats(), spec.AnalyzeCoverage)

	window := profileWindow(spec)
	s.progressf("profile %s: %d dynamic branches (%d static, %.2f%% analyzed, window %d)",
		spec.Name, filter.DynamicKept, filter.StaticKept, 100*filter.Coverage(), window)
	profSpan := s.stageSpan(spec.Name, "profile")
	defer profSpan.End()
	prof := profile.NewProfiler(spec.Name, input.Name,
		profile.WithWindow(window), profile.WithMetrics(s.cfg.Metrics.Profile()))
	prof.Reserve(spec.StaticBranches())
	if _, err := spec.RunInto(runCfg, trace.NewFilterSink(filter.Keep, prof)); err != nil {
		return nil, fmt.Errorf("harness: profiling %s: %w", spec.Name, err)
	}

	return &Artifacts{
		Spec:    spec,
		Input:   input,
		VMStats: stats,
		Filter:  filter,
		Profile: prof.Profile(),
	}, nil
}

// profileWindow is the interleave scan window for one spec: twice its
// nominal working-set size. Interleavings deeper than the window are
// not counted; those are dominated by long-range scene-to-scene pairs
// far below the pruning threshold, so the analysis keeps its shape
// while profiling time and pair memory drop severalfold. The window is
// printed with each profile step and recorded in EXPERIMENTS.md.
func profileWindow(spec workload.Spec) int {
	return 2 * spec.WorkingSetSize()
}

// stageSpan opens a per-benchmark stage span (no-op without metrics).
func (s *Suite) stageSpan(benchmark, stage string) *obs.Span {
	return s.cfg.Metrics.StartSpan(obs.Name("wsd_stage", "benchmark", benchmark, "stage", stage))
}

// replayFull drives the benchmark's complete branch stream into sink
// by re-executing the deterministic VM.
func (s *Suite) replayFull(a *Artifacts, sink vm.BranchSink) error {
	if _, err := a.Spec.RunInto(workload.RunConfig{
		Input: a.Input, Scale: s.cfg.Scale, Metrics: s.cfg.Metrics.VM(),
	}, sink); err != nil {
		return fmt.Errorf("harness: replaying %s: %w", a.Spec.Name, err)
	}
	return nil
}

// replayFiltered drives the frequency-filtered stream into sink by a
// filtered re-execution.
func (s *Suite) replayFiltered(a *Artifacts, sink vm.BranchSink) error {
	if _, err := a.Spec.RunInto(workload.RunConfig{
		Input: a.Input, Scale: s.cfg.Scale, Metrics: s.cfg.Metrics.VM(),
	}, trace.NewFilterSink(a.Filter.Keep, sink)); err != nil {
		return fmt.Errorf("harness: replaying %s (filtered): %w", a.Spec.Name, err)
	}
	return nil
}

// Cached returns a benchmark's artifacts only if they are already
// computed, without triggering (or waiting on) a computation. The
// benchmark tooling uses it to enumerate what a run actually touched.
func (s *Suite) Cached(benchmark string, input workload.InputSet) (*Artifacts, bool) { //reprolint:allow testonly called from perfbench/bench_test.go, which the Loader does not load
	return s.artifacts.cached(benchmark + "/" + input.Name)
}

// Table2Benchmarks is the paper's Table 2 row set (gs and tex appear
// only in the later tables).
var Table2Benchmarks = []string{
	"compress", "gcc", "ijpeg", "li", "m88ksim", "perl",
	"chess", "pgp", "plot", "python", "ss",
}

// SizedBenchmarks is the paper's Table 3/4 row set: alphabetical, with
// perl and ss contributing two input-set variants each.
type SizedBenchmark struct {
	Name  string
	Input workload.InputSet
	// Label is the row label (e.g. "perl_a").
	Label string
}

// SizedBenchmarkRows returns the Table 3/4 rows.
func SizedBenchmarkRows() []SizedBenchmark {
	return []SizedBenchmark{
		{"chess", workload.InputRef, "chess"},
		{"compress", workload.InputRef, "compress"},
		{"gcc", workload.InputRef, "gcc"},
		{"gs", workload.InputRef, "gs"},
		{"li", workload.InputRef, "li"},
		{"m88ksim", workload.InputRef, "m88ksim"},
		{"perl", workload.InputA, "perl_a"},
		{"perl", workload.InputB, "perl_b"},
		{"pgp", workload.InputRef, "pgp"},
		{"plot", workload.InputRef, "plot"},
		{"python", workload.InputRef, "python"},
		{"ss", workload.InputA, "ss_a"},
		{"ss", workload.InputB, "ss_b"},
		{"tex", workload.InputRef, "tex"},
	}
}

// FigureBenchmarks is the benchmark set of Figures 3 and 4.
var FigureBenchmarks = []string{
	"compress", "gcc", "ijpeg", "li", "m88ksim", "perl",
	"chess", "gs", "pgp", "plot", "python", "ss", "tex",
}
