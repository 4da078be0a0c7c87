// Command allocate computes a branch allocation (paper Section 5): a
// compiler-style static assignment of conditional branches to BHT
// entries by minimum-conflict graph coloring, optionally refined with
// branch classification, and reports its conflict cost against the
// conventional PC-indexed baseline. With -find-size it runs the Table
// 3/4 search for the smallest sufficient table.
//
// Usage:
//
//	allocate -bench li [-size 128] [-classify] [-find-size]
//	         [-baseline 1024] [-inputs ref,a,b]
//	allocate -static -bench li [-size 128] ...
//
// Passing several -inputs merges their profiles first (the paper's
// cumulative-profile approach, Section 5.2).
//
// With -static no profile run happens: the conflict graph, execution
// weights, and bias classes come from the compile-time estimate
// (package staticws), and the same coloring, verification, and size
// search run on that estimate.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/progcheck"
	"repro/internal/staticws"
	"repro/internal/workload"
)

// verifyAllocation applies the optional seeded corruption, then runs
// the graph and allocation verifiers (-check).
func verifyAllocation(prof *profile.Profile, alloc *core.Allocation, threshold uint64, corrupt string) error {
	switch corrupt {
	case "":
	case "graph":
		g, desc, err := analysis.CorruptGraph(alloc.Graph, threshold)
		if err != nil {
			return err
		}
		alloc.Graph = g
		fmt.Printf("corrupted graph: %s\n", desc)
	case "alloc":
		desc, err := analysis.CorruptAllocation(alloc)
		if err != nil {
			return err
		}
		fmt.Printf("corrupted allocation: %s\n", desc)
	default:
		return fmt.Errorf("unknown -corrupt target %q (want graph or alloc)", corrupt)
	}
	if err := analysis.VerifyGraph(alloc.Graph, threshold); err != nil {
		return fmt.Errorf("check failed: %w", err)
	}
	if err := analysis.VerifyAllocation(prof, alloc); err != nil {
		return fmt.Errorf("check failed: %w", err)
	}
	fmt.Println("check: conflict graph and allocation verified")
	return nil
}

func main() {
	var (
		bench     = flag.String("bench", "", "built-in benchmark")
		inputs    = flag.String("inputs", "ref", "comma-separated input sets to profile and merge (ref,a,b)")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		size      = flag.Int("size", 128, "BHT size to allocate into")
		useClass  = flag.Bool("classify", false, "use branch classification (Section 5.2)")
		findSize  = flag.Bool("find-size", false, "search the smallest BHT size beating the baseline (Tables 3/4)")
		baseline  = flag.Int("baseline", 1024, "conventional baseline BHT size")
		threshold = flag.Uint64("threshold", core.DefaultThreshold, "conflict edge pruning threshold")
		window    = flag.Int("window", 0, "interleave scan window (0 = exact)")
		check     = flag.Bool("check", false, "verify artifact invariants (conflict graph, allocation); non-zero exit on violation")
		corrupt   = flag.String("corrupt", "", "testing aid: seed a corruption before the checks (graph or alloc); implies -check")
		metrics   = flag.Bool("metrics", false, "instrument the run and append the metrics registry (text encoding) to the report")
		static    = flag.Bool("static", false, "allocate from the compile-time estimate (no profile run)")
		progCheck = flag.Bool("progcheck", false, "verify each built program with the static verifier before running; error findings reject it, and with -static the proven facts prune resolved/dead branches from the conflict estimate")
	)
	flag.Parse()
	if *corrupt != "" {
		*check = true
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	if err := run(*bench, *inputs, *scale, *size, *useClass, *findSize, *baseline, *threshold, *window, *check, *corrupt, *static, *progCheck, reg); err != nil {
		fmt.Fprintln(os.Stderr, "allocate:", err)
		os.Exit(1)
	}
}

func run(bench, inputs string, scale float64, size int, useClass, findSize bool, baseline int, threshold uint64, window int, check bool, corrupt string, static, progCheck bool, reg *obs.Registry) error {
	if bench == "" {
		return fmt.Errorf("need -bench")
	}
	if baseline < 1 {
		return fmt.Errorf("-baseline %d: the conventional table needs at least 1 entry", baseline)
	}
	if window < 0 {
		return fmt.Errorf("-window %d: want 0 (exact) or a positive scan window", window)
	}
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	m := obs.New(reg)

	var prof *profile.Profile
	if static {
		in, err := workload.InputByName(strings.TrimSpace(inputs))
		if err != nil {
			return fmt.Errorf("-static uses one input set's program (got %q)", inputs)
		}
		prog, err := spec.Build(in, scale)
		if err != nil {
			return err
		}
		var facts *progcheck.Facts
		if progCheck {
			r, err := progcheck.Gate(os.Stdout, prog)
			if err != nil {
				return err
			}
			facts = r.Facts
		}
		est, err := staticws.Analyze(prog, facts)
		if err != nil {
			return err
		}
		fmt.Printf("static analysis of %s: no profile run\n", prog.Name)
		fmt.Println(est.Describe())
		if est.PrunedResolved+est.PrunedDead > 0 {
			fmt.Printf("progcheck pruning: %d resolved + %d dead branch sites excluded from the conflict graph\n",
				est.PrunedResolved, est.PrunedDead)
		}
		prof = est.Profile
	} else {
		// Resolve every input first: a repeated set would double its
		// counts, so it is refused before any VM run.
		var ins []workload.InputSet
		for _, name := range strings.Split(inputs, ",") {
			in, err := workload.InputByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			if slices.Contains(ins, in) {
				return fmt.Errorf("input set %q appears twice in -inputs %q", in.Name, inputs)
			}
			ins = append(ins, in)
		}
		var profiles []*profile.Profile
		for _, in := range ins {
			opts := []profile.Option{profile.WithMetrics(m.Profile())}
			if window > 0 {
				opts = append(opts, profile.WithWindow(window))
			}
			if progCheck {
				prog, err := spec.Build(in, scale)
				if err != nil {
					return err
				}
				if _, err := progcheck.Gate(os.Stdout, prog); err != nil {
					return err
				}
			}
			p := profile.NewProfiler(bench, in.Name, opts...)
			stats, err := spec.RunInto(workload.RunConfig{Input: in, Scale: scale, Metrics: m.VM()}, p)
			if err != nil {
				return err
			}
			p.SetInstructions(stats.Instructions)
			profiles = append(profiles, p.Profile())
			fmt.Printf("profiled %s/%s: %d dynamic branches, %d static\n",
				bench, in.Name, stats.CondBranches, profiles[len(profiles)-1].NumBranches())
		}
		prof = profiles[0]
		if len(profiles) > 1 {
			if prof, err = profile.Merge(profiles...); err != nil {
				return err
			}
			fmt.Printf("merged %d profiles: %d static branches\n", len(profiles), prof.NumBranches())
		}
	}

	cfg := core.AllocationConfig{
		TableSize:         size,
		Threshold:         threshold,
		UseClassification: useClass,
	}
	var res core.SizeSearchResult
	var alloc *core.Allocation
	if findSize {
		res, err = core.RequiredBHTSize(prof, baseline, cfg)
		alloc = res.Allocation
	} else {
		alloc, err = core.Allocate(prof, cfg)
	}
	if err != nil {
		return err
	}

	if cls := alloc.Classification; cls != nil {
		m, bt, bnt := cls.Counts()
		fmt.Printf("classification: %d mixed, %d biased-taken, %d biased-not-taken (%.1f%% of dynamic branches biased)\n",
			m, bt, bnt, 100*cls.BiasedDynamicFraction(prof))
	}
	if findSize {
		fmt.Printf("\nconventional %d-entry baseline conflict cost: %d\n", baseline, res.BaselineCost)
		fmt.Printf("required BHT size: %d (alloc cost %d, %d colorings)\n",
			res.RequiredSize, res.AllocCost, res.Colorings)
	}
	if check {
		if err := verifyAllocation(prof, alloc, threshold, corrupt); err != nil {
			return err
		}
	}
	if findSize {
		return dumpMetrics(reg)
	}
	convCost, err := core.ConventionalCost(prof, baseline, cfg)
	if err != nil {
		return err
	}
	occupied, maxLoad := alloc.Map.LoadStats()
	fmt.Printf("\nallocation into %d entries: conflict cost %d\n", size, alloc.ConflictCost)
	fmt.Printf("conventional %d-entry cost:  %d\n", baseline, convCost)
	fmt.Printf("entries occupied: %d/%d, max branches per entry: %d\n", occupied, size, maxLoad)
	if alloc.Map.ReservedTaken >= 0 {
		fmt.Printf("reserved entries: %d (biased taken), %d (biased not-taken)\n",
			alloc.Map.ReservedTaken, alloc.Map.ReservedNotTaken)
	}
	return dumpMetrics(reg)
}

// dumpMetrics appends the text encoding of the registry to the report
// (-metrics); a nil registry means instrumentation is off.
func dumpMetrics(reg *obs.Registry) error {
	if reg == nil {
		return nil
	}
	fmt.Printf("\nmetrics:\n")
	return obs.WriteText(os.Stdout, reg.Snapshot())
}
