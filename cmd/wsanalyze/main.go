// Command wsanalyze runs branch working set analysis (paper Section 4)
// on a built-in benchmark or an assembly program.
//
// Usage:
//
//	wsanalyze -bench gcc [-input ref] [-scale f] [-threshold n]
//	          [-window n] [-definition cliques|partition]
//	          [-top n] [-charact] [-cpuprofile f] [-memprofile f]
//	wsanalyze -program file.s [-input ref] ...
//	wsanalyze -static -bench gcc ...
//
// It executes the program twice, as the experiment harness does: a
// frequency pre-count selects the analyzed branches, and a second run
// streams their events into the interleave profiler. It prints the
// working-set summary (the benchmark's Table 2 row) and the largest
// sets.
// -charact appends the predictability characterization: the stream's
// mean direction entropy before and after history conditioning, and a
// per-branch bias/entropy line for the -top hottest branches.
//
// With -static the program is never executed: working sets come from
// the compile-time conflict estimate (package staticws) built on the
// program's CFG and loop nest, and the same analysis, checks, and
// report run on that estimate.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/charact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/progcheck"
	"repro/internal/program"
	"repro/internal/staticws"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	var (
		bench       = flag.String("bench", "", "built-in benchmark to run (see -list)")
		input       = flag.String("input", "ref", "input set: ref, a, or b")
		scale       = flag.Float64("scale", 1.0, "workload scale factor")
		programFile = flag.String("program", "", "run and analyze an assembly program file instead of a built-in benchmark")
		threshold   = flag.Uint64("threshold", core.DefaultThreshold, "conflict edge pruning threshold")
		window      = flag.Int("window", 0, "interleave scan window (0 = exact/unbounded)")
		definition  = flag.String("definition", "cliques", "working-set definition: cliques or partition")
		top         = flag.Int("top", 5, "print the N largest working sets")
		coverage    = flag.Float64("coverage", 0, "frequency-filter coverage (0 = the spec's default)")
		list        = flag.Bool("list", false, "list built-in benchmarks and exit")
		check       = flag.Bool("check", false, "verify artifact invariants (conflict graph, working sets); non-zero exit on violation")
		corrupt     = flag.String("corrupt", "", "testing aid: seed a corruption before the checks (graph or sets); implies -check")
		charFlag    = flag.Bool("charact", false, "append the per-branch predictability characterization (bias, entropy, history-conditioned entropy) for the -top branches by execution count")
		metrics     = flag.Bool("metrics", false, "instrument the run and append the metrics registry (text encoding) to the report")
		static      = flag.Bool("static", false, "analyze the program at compile time (CFG/loop-nest estimate) instead of executing it")
		progCheck   = flag.Bool("progcheck", false, "verify the program with the static verifier before running; error findings reject it, and with -static the proven facts prune resolved/dead branches from the conflict estimate")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *corrupt != "" {
		*check = true
	}

	if *list {
		for _, s := range workload.Specs() {
			fmt.Printf("%-10s %s (%d static branches)\n", s.Name, s.Description, s.StaticBranches())
		}
		return
	}

	stopProfiling, err := obs.StartProfiling(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsanalyze:", err)
		os.Exit(1)
	}

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	if err := run(runOpts{
		bench: *bench, input: *input, scale: *scale,
		programFile: *programFile,
		threshold:   *threshold, window: *window,
		definition: *definition, top: *top, coverage: *coverage,
		check: *check, corrupt: *corrupt, static: *static,
		charact: *charFlag, progCheck: *progCheck,
	}, reg); err != nil {
		fmt.Fprintln(os.Stderr, "wsanalyze:", err)
		os.Exit(1)
	}

	if err := stopProfiling(); err != nil {
		fmt.Fprintln(os.Stderr, "wsanalyze:", err)
		os.Exit(1)
	}
}

// runOpts carries the CLI flags into run, keeping run testable without
// a 14-way positional signature.
type runOpts struct {
	bench, input string
	scale        float64
	programFile  string
	threshold    uint64
	window       int
	definition   string
	top          int
	coverage     float64
	check        bool
	corrupt      string
	static       bool
	charact      bool
	progCheck    bool
}

// target is the program under analysis and what its runs need.
type target struct {
	prog     *program.Program
	input    workload.InputSet
	name     string  // the run's name in reports
	coverage float64 // frequency-filter coverage to analyze
}

// loadTarget loads the program under analysis: a parsed assembly file
// with -program, or the built benchmark with -bench. A -coverage of 0
// analyzes all of a -program file and a benchmark's Table 1 target.
func loadTarget(o runOpts) (target, error) {
	in, err := workload.InputByName(o.input)
	if err != nil {
		return target{}, err
	}
	t := target{input: in, coverage: o.coverage}
	if o.programFile != "" {
		f, err := os.Open(o.programFile)
		if err != nil {
			return target{}, err
		}
		t.prog, err = program.Parse(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return target{}, err
		}
		t.name = t.prog.Name
		if t.coverage == 0 {
			t.coverage = 1.0
		}
		return t, nil
	}
	if o.bench == "" {
		return target{}, fmt.Errorf("need -bench or -program (try -list)")
	}
	spec, err := workload.ByName(o.bench)
	if err != nil {
		return target{}, err
	}
	t.name = spec.Name
	if t.coverage == 0 {
		t.coverage = spec.AnalyzeCoverage
	}
	t.prog, err = spec.Build(in, o.scale)
	return t, err
}

// profileRun executes t twice: a frequency pre-count selects the
// branches covering the requested fraction of the stream, then a
// second run streams their events into the profiler and, with
// -charact, the characterization collector. The VM is deterministic,
// so both runs deliver one stream; only the first counts toward the
// VM metrics.
func profileRun(o runOpts, t target, m *obs.Metrics) (*profile.Profile, *charact.Collector, error) {
	var freq trace.FreqCounter
	if _, err := vm.Run(t.prog, vm.Config{DataSeed: t.input.Seed, Sink: &freq, Metrics: m.VM()}); err != nil {
		return nil, nil, err
	}
	filter := trace.FilterByCoverage(freq.Stats(), t.coverage)
	fmt.Printf("benchmark %s (input %s): %d dynamic branches, %d static\n",
		t.name, t.input.Name, filter.DynamicTotal, filter.StaticTotal)
	fmt.Printf("analyzed: %d dynamic (%.2f%%), %d static\n",
		filter.DynamicKept, 100*filter.Coverage(), filter.StaticKept)

	opts := []profile.Option{profile.WithMetrics(m.Profile())}
	if o.window > 0 {
		opts = append(opts, profile.WithWindow(o.window))
		fmt.Printf("interleave scan window: %d (bounded approximation)\n", o.window)
	}
	p := profile.NewProfiler(t.name, t.input.Name, opts...)
	var sink vm.BranchSink = p
	var col *charact.Collector
	if o.charact {
		// The collector rides the very stream the profiler consumes,
		// so the characterization describes the analyzed branches.
		col = charact.NewCollector()
		sink = vm.MultiSink{p, col}
	}
	if _, err := vm.Run(t.prog, vm.Config{DataSeed: t.input.Seed, Sink: trace.NewFilterSink(filter.Keep, sink)}); err != nil {
		return nil, nil, err
	}
	return p.Profile(), col, nil
}

func run(o runOpts, reg *obs.Registry) error {
	var def core.SetDefinition
	switch o.definition {
	case "cliques":
		def = core.MaximalCliques
	case "partition":
		def = core.GreedyPartition
	default:
		return fmt.Errorf("unknown definition %q (want cliques or partition)", o.definition)
	}
	// The negated range test also rejects NaN; 0 selects the default.
	if !(o.coverage >= 0 && o.coverage <= 1) {
		return fmt.Errorf("-coverage %v outside [0, 1]", o.coverage)
	}
	if o.window < 0 {
		return fmt.Errorf("-window %d: want 0 (exact) or a positive scan window", o.window)
	}
	if o.top < 0 {
		return fmt.Errorf("-top %d: want 0 or more sets to print", o.top)
	}
	m := obs.New(reg)
	threshold := o.threshold
	if threshold == 0 {
		threshold = core.DefaultThreshold
	}

	if o.static && o.charact {
		return fmt.Errorf("-charact needs an executed branch stream; drop -static")
	}
	t, err := loadTarget(o)
	if err != nil {
		return err
	}
	var facts *progcheck.Facts
	if o.progCheck {
		report, err := progcheck.Gate(os.Stdout, t.prog)
		if err != nil {
			return err
		}
		facts = report.Facts
	}

	var prof *profile.Profile
	var col *charact.Collector
	if o.static {
		// Verifier facts, when present, prune resolved and dead branches
		// from the compile-time conflict graph.
		est, err := staticws.Analyze(t.prog, facts)
		if err != nil {
			return err
		}
		fmt.Printf("benchmark %s: compile-time analysis, no execution\n", t.prog.Name)
		fmt.Println(est.CFG)
		fmt.Printf("loops: %d\n", len(est.Forest.Loops))
		fmt.Println(est.Describe())
		if est.PrunedResolved+est.PrunedDead > 0 {
			fmt.Printf("progcheck pruning: %d resolved + %d dead branch sites excluded from the conflict graph\n",
				est.PrunedResolved, est.PrunedDead)
		}
		prof = est.Profile
	} else if prof, col, err = profileRun(o, t, m); err != nil {
		return err
	}

	res, err := core.Analyze(prof, core.AnalysisConfig{
		Threshold:  threshold,
		Definition: def,
		Metrics:    m.Clique(),
	})
	if err != nil {
		return err
	}

	switch o.corrupt {
	case "":
	case "graph":
		g, desc, err := analysis.CorruptGraph(res.Graph, threshold)
		if err != nil {
			return err
		}
		res.Graph = g
		fmt.Printf("corrupted graph: %s\n", desc)
	case "sets":
		desc, err := analysis.CorruptWorkingSets(res)
		if err != nil {
			return err
		}
		fmt.Printf("corrupted working sets: %s\n", desc)
	default:
		return fmt.Errorf("unknown -corrupt target %q (want graph or sets)", o.corrupt)
	}

	if o.check {
		if err := analysis.VerifyGraph(res.Graph, threshold); err != nil {
			return fmt.Errorf("check failed: %w", err)
		}
		if err := analysis.VerifyWorkingSets(res); err != nil {
			return fmt.Errorf("check failed: %w", err)
		}
		fmt.Println("check: conflict graph and working sets verified")
	}

	fmt.Printf("\nconflict graph: %s (threshold %d)\n", res.Graph, threshold)
	fmt.Printf("working sets (%s): %d", def, res.NumSets())
	if res.Truncated {
		fmt.Printf("+ (enumeration budget reached; counts are a lower bound)")
	}
	fmt.Println()
	fmt.Printf("average static size:  %.1f\n", res.AvgStaticSize())
	fmt.Printf("average dynamic size: %.1f\n", res.AvgDynamicSize())
	fmt.Printf("largest set:          %d\n", res.MaxSetSize())
	fmt.Printf("isolated branches:    %d\n", res.IsolatedBranches)

	top := o.top
	if top > len(res.Sets) {
		top = len(res.Sets)
	}
	if top > 0 {
		fmt.Printf("\ntop %d sets by size:\n", top)
		for i := 0; i < top; i++ {
			ws := res.Sets[i]
			fmt.Printf("  #%d: %d branches, %d executions\n", i+1, ws.Size(), ws.ExecWeight)
		}
	}

	if col != nil {
		rep := col.Report()
		sum := rep.Summary()
		fmt.Printf("\npredictability: %.3f bits mean entropy, %.3f | local%d, %.3f | global%d, %.1f%% hard\n",
			sum.Entropy, sum.LocalCond, charact.MaxHistory, sum.GlobalCond, charact.MaxHistory, 100*sum.HardFraction)
		byCount := make([]charact.BranchChar, len(rep.Branches))
		copy(byCount, rep.Branches)
		sort.Slice(byCount, func(i, j int) bool {
			if byCount[i].Count != byCount[j].Count {
				return byCount[i].Count > byCount[j].Count
			}
			return byCount[i].PC < byCount[j].PC
		})
		n := top
		if n > len(byCount) {
			n = len(byCount)
		}
		if n > 0 {
			fmt.Printf("top %d branches by execution count:\n", n)
			for i := 0; i < n; i++ {
				b := byCount[i]
				fmt.Printf("  pc=%#06x count=%-8d bias=%.3f entropy=%.3f H|local%d=%.3f H|global%d=%.3f\n",
					b.PC, b.Count, b.Bias, b.Entropy,
					charact.MaxHistory, b.LocalCond[charact.MaxHistory-1],
					charact.MaxHistory, b.GlobalCond[charact.MaxHistory-1])
			}
		}
	}

	if reg != nil {
		fmt.Printf("\nmetrics:\n")
		if err := obs.WriteText(os.Stdout, reg.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}
