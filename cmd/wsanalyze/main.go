// Command wsanalyze runs branch working set analysis (paper Section 4)
// on a built-in benchmark or a recorded trace file.
//
// Usage:
//
//	wsanalyze -bench gcc [-input ref] [-scale f] [-threshold n]
//	          [-window n] [-definition cliques|partition]
//	          [-top n] [-charact] [-cpuprofile f] [-memprofile f]
//	wsanalyze -trace file.bwt [-threshold n] ...
//	wsanalyze -program file.s [-input ref] ...
//	wsanalyze -static -bench gcc ...
//
// It prints the working-set summary (the benchmark's Table 2 row) and
// the largest sets, and can dump the recorded trace with -save.
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
		traceFile   = flag.String("trace", "", "analyze a recorded trace file instead of running a benchmark")
		programFile = flag.String("program", "", "run and analyze an assembly program file instead of a built-in benchmark")
		save        = flag.String("save", "", "save the recorded trace to this file")
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
		traceFile: *traceFile, programFile: *programFile, save: *save,
		threshold: *threshold, window: *window,
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
// a 17-way positional signature.
type runOpts struct {
	bench, input                 string
	scale                        float64
	traceFile, programFile, save string
	threshold                    uint64
	window                       int
	definition                   string
	top                          int
	coverage                     float64
	check                        bool
	corrupt                      string
	static                       bool
	charact                      bool
	progCheck                    bool
}

func loadTrace(o runOpts, m *obs.Metrics) (*trace.Trace, float64, error) {
	coverage := o.coverage
	if o.programFile != "" {
		prog, err := buildProgram(o)
		if err != nil {
			return nil, 0, err
		}
		in, err := workload.InputByName(o.input)
		if err != nil {
			return nil, 0, err
		}
		rec := trace.NewRecorder(prog.Name, in.Name)
		stats, err := vm.Run(prog, vm.Config{DataSeed: in.Seed, Sink: rec, Metrics: m.VM()})
		if err != nil {
			return nil, 0, err
		}
		if coverage == 0 {
			coverage = 1.0
		}
		return rec.Finish(stats.Instructions), coverage, nil
	}
	if o.traceFile != "" {
		f, err := os.Open(o.traceFile)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			return nil, 0, err
		}
		if coverage == 0 {
			coverage = 1.0
		}
		return tr, coverage, nil
	}
	if o.bench == "" {
		return nil, 0, fmt.Errorf("need -bench, -trace, or -program (try -list)")
	}
	spec, err := workload.ByName(o.bench)
	if err != nil {
		return nil, 0, err
	}
	in, err := workload.InputByName(o.input)
	if err != nil {
		return nil, 0, err
	}
	tr, _, err := spec.Run(workload.RunConfig{Input: in, Scale: o.scale, Metrics: m.VM()})
	if err != nil {
		return nil, 0, err
	}
	if o.save != "" {
		f, err := os.Create(o.save)
		if err != nil {
			return nil, 0, err
		}
		if err := trace.Write(f, tr); err != nil {
			_ = f.Close() // the Write failure is the error to report
			return nil, 0, err
		}
		if err := f.Close(); err != nil {
			return nil, 0, err
		}
		fmt.Printf("trace saved to %s (%d events)\n", o.save, len(tr.Events))
	}
	if coverage == 0 {
		coverage = spec.AnalyzeCoverage
	}
	return tr, coverage, nil
}

// buildProgram loads the program under analysis: a parsed assembly file
// with -program, or the built benchmark program.
func buildProgram(o runOpts) (*program.Program, error) {
	if o.programFile != "" {
		f, err := os.Open(o.programFile)
		if err != nil {
			return nil, err
		}
		prog, err := program.Parse(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return prog, err
	}
	if o.bench == "" {
		return nil, fmt.Errorf("need -bench or -program (try -list)")
	}
	spec, err := workload.ByName(o.bench)
	if err != nil {
		return nil, err
	}
	in, err := workload.InputByName(o.input)
	if err != nil {
		return nil, err
	}
	return spec.Build(in, o.scale)
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
	m := obs.New(reg)
	threshold := o.threshold
	if threshold == 0 {
		threshold = core.DefaultThreshold
	}

	// -progcheck gates every path that has a program to verify; a
	// recorded trace has none.
	var facts *progcheck.Facts
	if o.progCheck {
		if o.traceFile != "" {
			return fmt.Errorf("-progcheck verifies a program, not a recorded trace")
		}
		prog, err := buildProgram(o)
		if err != nil {
			return err
		}
		report, err := progcheck.Gate(os.Stdout, prog)
		if err != nil {
			return err
		}
		facts = report.Facts
	}

	var prof *profile.Profile
	var col *charact.Collector
	if o.static {
		if o.traceFile != "" {
			return fmt.Errorf("-static analyzes a program, not a recorded trace")
		}
		if o.charact {
			return fmt.Errorf("-charact needs an executed branch stream; drop -static")
		}
		prog, err := buildProgram(o)
		if err != nil {
			return err
		}
		// Verifier facts, when present, prune resolved and dead branches
		// from the compile-time conflict graph.
		est, err := staticws.Analyze(prog, facts)
		if err != nil {
			return err
		}
		fmt.Printf("benchmark %s: compile-time analysis, no execution\n", prog.Name)
		fmt.Println(est.CFG)
		fmt.Printf("loops: %d\n", len(est.Forest.Loops))
		fmt.Println(est.Describe())
		if est.PrunedResolved+est.PrunedDead > 0 {
			fmt.Printf("progcheck pruning: %d resolved + %d dead branch sites excluded from the conflict graph\n",
				est.PrunedResolved, est.PrunedDead)
		}
		prof = est.Profile
	} else {
		tr, cov, err := loadTrace(o, m)
		if err != nil {
			return err
		}

		filter := trace.FilterByCoverage(tr.Stats(), cov)
		fmt.Printf("benchmark %s (input %s): %d dynamic branches, %d static\n",
			tr.Benchmark, tr.InputSet, filter.DynamicTotal, filter.StaticTotal)
		fmt.Printf("analyzed: %d dynamic (%.2f%%), %d static\n",
			filter.DynamicKept, 100*filter.Coverage(), filter.StaticKept)

		opts := []profile.Option{profile.WithMetrics(m.Profile())}
		if o.window > 0 {
			opts = append(opts, profile.WithWindow(o.window))
			fmt.Printf("interleave scan window: %d (bounded approximation)\n", o.window)
		}
		p := profile.NewProfiler(tr.Benchmark, tr.InputSet, opts...)
		var sink vm.BranchSink = p
		if o.charact {
			// The collector rides the very stream the profiler consumes,
			// so the characterization describes the analyzed branches.
			col = charact.NewCollector()
			sink = vm.MultiSink{p, col}
		}
		tr.Replay(trace.NewFilterSink(filter.Keep, sink))
		p.SetInstructions(tr.Instructions)
		prof = p.Profile()
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
