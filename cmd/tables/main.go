// Command tables regenerates every table and figure of the paper's
// evaluation (Tables 1-4, Figures 3-4). See DESIGN.md for the
// per-experiment index and EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	tables [-scale f] [-table n] [-figure n] [-markdown] [-quiet]
//	       [-workers n] [-static]
//	       [-zoo] [-graphs] [-charact] [-predictor list]
//	       [-cpuprofile f] [-memprofile f]
//
// Without -table/-figure it runs everything. -static runs the
// static-vs-profiled comparison (compile-time working-set estimation,
// no profile run feeding the allocator). -zoo runs the predictor zoo
// (allocated vs conventional indexing for PAg, gshare, TAGE, and the
// hashed perceptron; -predictor restricts the kinds). -graphs runs the
// graph workloads (BFS, connected components, and triangle counting
// over seeded generated graphs, branchy vs branch-avoiding variants)
// under the same zoo. -charact runs the branch predictability
// characterization (per-branch bias, direction entropy, and
// history-conditioned entropy, aggregated per benchmark). -markdown emits
// GitHub-style tables suitable for EXPERIMENTS.md. Benchmarks run
// concurrently (-workers, default GOMAXPROCS), each streaming its
// branches straight into the analyses; the rendered output is
// byte-identical across worker counts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	var (
		scale      = flag.Float64("scale", 1.0, "workload scale factor (1.0 = default size; larger approaches paper scale)")
		table      = flag.Int("table", 0, "run only this table (1-4)")
		figure     = flag.Int("figure", 0, "run only this figure (3 or 4)")
		markdown   = flag.Bool("markdown", false, "emit markdown tables")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		budget     = flag.Int("clique-budget", 0, "maximal-clique enumeration budget (0 = default)")
		ablation   = flag.Bool("ablations", false, "also run the ablation studies (threshold, definition, grouped, window)")
		static     = flag.Bool("static", false, "run the static-vs-profiled comparison (profile-free allocation from the compile-time estimate)")
		extras     = flag.Bool("extras", false, "also run the extended experiments (related-work predictor comparison, pipeline cost model)")
		zoo        = flag.Bool("zoo", false, "run the predictor zoo (gshare, TAGE, perceptron, PAg): allocated vs conventional indexing per table size")
		graphs     = flag.Bool("graphs", false, "run the graph workloads (BFS, CC, triangle over generated graphs): branchy vs branch-avoiding kernels under the zoo")
		charact    = flag.Bool("charact", false, "run the branch predictability characterization (bias, entropy, history sensitivity) over the classic and graph benchmarks")
		predictor  = flag.String("predictor", "", "restrict -zoo to these comma-separated predictors (pag, gshare, tage, perceptron)")
		check      = flag.Bool("check", false, "run the internal/analysis artifact verifiers on every produced artifact")
		progCheck  = flag.Bool("progcheck", false, "verify every compiled program with the static program verifier before it runs; error findings fail the run")
		workers    = flag.Int("workers", 0, "concurrent benchmark workers (0 = GOMAXPROCS, 1 = serial)")
		metrics    = flag.Bool("metrics", false, "instrument the run and dump the metrics registry (text encoding) to stderr on exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if err := checkFlags(*budget, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}

	stopProfiling, err := obs.StartProfiling(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	suite := harness.NewSuite(harness.Config{
		Scale:        *scale,
		CliqueBudget: *budget,
		Check:        *check,
		Workers:      *workers,
		Progress:     progress,
		Metrics:      obs.New(reg),
		ProgCheck:    *progCheck,
	})

	if *predictor != "" && !*zoo && !*graphs {
		fmt.Fprintln(os.Stderr, "tables: -predictor only applies to -zoo and -graphs runs")
		os.Exit(1)
	}

	runAll := *table == 0 && *figure == 0 && !*ablation && !*extras && !*static && !*zoo && !*graphs && !*charact
	// Progress timing goes to stderr and never into a table; the clock
	// comes from obs so the wall-clock read stays in one sanctioned place.
	clock := obs.SystemClock()
	start := clock.Now()
	if err := run(suite, runAll, *table, *figure, *markdown); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	if *ablation {
		if err := harness.RunAblations(suite, os.Stdout, *markdown); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
	}
	if *extras {
		if err := harness.RunExtras(suite, os.Stdout, *markdown); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
	}
	if *zoo {
		if err := harness.RunZoo(suite, os.Stdout, *markdown, harness.SplitZooKinds(*predictor)...); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
	}
	if *graphs {
		if err := harness.RunGraphs(suite, os.Stdout, *markdown, harness.SplitZooKinds(*predictor)...); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
	}
	if *charact {
		if err := harness.RunCharact(suite, os.Stdout, *markdown); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
	}
	if *static {
		if err := harness.RunStatic(suite, os.Stdout, *markdown); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "total: %s\n", clock.Now().Sub(start).Round(time.Millisecond))
	}
	if reg != nil {
		fmt.Fprintf(os.Stderr, "metrics:\n")
		if err := obs.WriteText(os.Stderr, reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
	}

	if err := stopProfiling(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

// checkFlags rejects the integer flags that have no meaning below 0,
// which the harness would otherwise read as their defaults.
func checkFlags(budget, workers int) error {
	if budget < 0 {
		return fmt.Errorf("-clique-budget %d: want 0 (the default) or a positive step budget", budget)
	}
	if workers < 0 {
		return fmt.Errorf("-workers %d: want 0 (GOMAXPROCS) or a positive worker count", workers)
	}
	return nil
}

func run(suite *harness.Suite, all bool, table, figure int, markdown bool) error {
	if all {
		return harness.RunAll(suite, os.Stdout, markdown)
	}
	if table != 0 {
		if err := harness.RunTable(suite, os.Stdout, table, markdown); err != nil {
			return err
		}
	}
	if figure != 0 {
		if err := harness.RunFigure(suite, os.Stdout, figure, markdown); err != nil {
			return err
		}
	}
	return nil
}
