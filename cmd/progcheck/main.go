// Command progcheck runs the static program verifier (package
// progcheck) over assembly programs, built-in seed benchmarks, or
// graph workloads, and reports findings in the reprolint style: a
// stable total order, severities error/warn/info, -json output, and a
// baseline workflow so known findings can be accepted without
// blocking a gate.
//
// Usage:
//
//	progcheck [flags] file.s...
//	progcheck -bench gcc [-input ref] [-scale f]
//	progcheck -graph bfs-uniform [-scale f]
//	progcheck -all [-scale f]
//
// Findings print as
//
//	name: inst 12 (pc 48): error: oob: store address [65536] is provably outside memory [0,4096)
//
// followed by one summary line per program with the finding counts and
// the static branch-site classification (latch / exit / guard /
// resolved / dead / data-dependent).
//
// With -crosscheck, every program whose verification produced facts is
// also executed with the facts armed as runtime assertions (package
// progcheck's differential oracle); a violation is a verifier bug and
// fails the run regardless of severity gates.
//
// Exit status: 0 clean (no error findings, or all baselined), 1 error
// findings or a crosscheck violation (-strict widens the gate to
// warn), 2 operational error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/progcheck"
	"repro/internal/program"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	var opts options
	flag.StringVar(&opts.bench, "bench", "", "verify a built-in seed benchmark (see wsanalyze -list)")
	flag.StringVar(&opts.input, "input", "ref", "input set for -bench: ref, a, or b")
	flag.StringVar(&opts.graph, "graph", "", "verify a built-in graph workload (name from GraphNames)")
	flag.BoolVar(&opts.all, "all", false, "verify every seed benchmark and graph workload")
	flag.Float64Var(&opts.scale, "scale", 0.1, "workload scale factor for -bench/-graph/-all")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit reports as a JSON array instead of text")
	flag.BoolVar(&opts.strict, "strict", false, "fail on warn findings too, not only errors")
	flag.BoolVar(&opts.crosscheck, "crosscheck", false, "replay proven facts against a live run (differential oracle)")
	flag.Uint64Var(&opts.seed, "seed", 1, "data seed for -crosscheck runs")
	flag.Uint64Var(&opts.maxInstructions, "max-instructions", 2_000_000, "instruction cap for -crosscheck runs (0 = unlimited)")
	flag.StringVar(&opts.baseline, "baseline", "", "baseline file; findings whose lines match do not print or fail")
	flag.StringVar(&opts.writeBaseline, "write-baseline", "", "regenerate this baseline file from current failing findings and exit")
	flag.Parse()

	code, err := run(opts, flag.Args(), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "progcheck:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// options carries the CLI flags into run, keeping run testable.
type options struct {
	bench, input, graph string
	all                 bool
	scale               float64
	jsonOut             bool
	strict              bool
	crosscheck          bool
	seed                uint64
	maxInstructions     uint64
	baseline            string
	writeBaseline       string
}

// target is one program to verify.
type target struct {
	name string
	prog *program.Program
	// seed feeds -crosscheck runs; benchmarks carry their input seed.
	seed uint64
}

// report is one verified target, shaped for -json.
type report struct {
	Name     string                  `json:"name"`
	Findings []progcheck.Finding     `json:"findings"`
	Summary  progcheck.BranchSummary `json:"branch_summary"`
	Failed   bool                    `json:"failed"`
}

func run(opts options, args []string, stdout io.Writer) (int, error) {
	targets, err := resolveTargets(opts, args)
	if err != nil {
		return 2, err
	}
	if len(targets) == 0 {
		return 2, fmt.Errorf("nothing to verify: pass program files or -bench/-graph/-all")
	}
	baseline, err := loadBaseline(opts.baseline)
	if err != nil {
		return 2, err
	}

	var (
		reports   []report
		baselined []string
		exit      int
	)
	for _, t := range targets {
		r := progcheck.Check(t.prog)
		rep := report{Name: t.name, Findings: r.Findings, Summary: r.Summary()}

		for _, f := range r.Findings {
			line := t.name + ": " + f.String()
			fails := f.Severity == progcheck.SevError || (opts.strict && f.Severity.Fails())
			if fails {
				if baseline[line] {
					baselined = append(baselined, line)
					fails = false
				} else {
					rep.Failed = true
				}
			}
			if !opts.jsonOut && (opts.writeBaseline == "" || fails) {
				fmt.Fprintln(stdout, line)
			}
		}
		if rep.Failed {
			exit = 1
		}

		if opts.crosscheck && r.Facts != nil {
			_, err := progcheck.CrossCheck(t.prog, r.Facts, vm.Config{
				DataSeed:        t.seed,
				MaxInstructions: opts.maxInstructions,
			})
			// A runtime fault is the program's own business (an oob
			// finding predicts exactly that); only a fact violation
			// indicts the verifier.
			if err != nil && strings.Contains(err.Error(), "crosscheck:") {
				fmt.Fprintf(stdout, "%s: %v\n", t.name, err)
				rep.Failed = true
				exit = 1
			} else if !opts.jsonOut && opts.writeBaseline == "" {
				fmt.Fprintf(stdout, "%s: crosscheck ok\n", t.name)
			}
		}

		if !opts.jsonOut && opts.writeBaseline == "" {
			fmt.Fprintln(stdout, r.SummaryLine(t.name))
		}
		reports = append(reports, rep)
	}

	if opts.writeBaseline != "" {
		return exitFromWrite(opts, reports, targets)
	}
	if opts.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return 2, err
		}
	}
	return exit, nil
}

// exitFromWrite regenerates the baseline from current failing findings.
func exitFromWrite(opts options, reports []report, targets []target) (int, error) {
	var lines []string
	for i, rep := range reports {
		for _, f := range rep.Findings {
			if f.Severity == progcheck.SevError || (opts.strict && f.Severity.Fails()) {
				lines = append(lines, targets[i].name+": "+f.String())
			}
		}
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(opts.writeBaseline, []byte(b.String()), 0o644); err != nil {
		return 2, err
	}
	return 0, nil
}

func loadBaseline(path string) (map[string]bool, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	defer f.Close()
	lines := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines[l] = true
		}
	}
	return lines, sc.Err()
}

func resolveTargets(opts options, args []string) ([]target, error) {
	var targets []target
	for _, path := range args {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		p, err := program.Parse(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		targets = append(targets, target{name: path, prog: p, seed: opts.seed})
	}
	if opts.bench != "" {
		t, err := benchTarget(opts.bench, opts.input, opts.scale)
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	if opts.graph != "" {
		g, err := workload.GraphByName(opts.graph)
		if err != nil {
			return nil, err
		}
		p, err := g.Build(opts.scale)
		if err != nil {
			return nil, err
		}
		targets = append(targets, target{name: g.Name, prog: p, seed: 1})
	}
	if opts.all {
		for _, s := range workload.Specs() {
			t, err := benchTarget(s.Name, opts.input, opts.scale)
			if err != nil {
				return nil, err
			}
			targets = append(targets, t)
		}
		for _, g := range workload.Graphs() {
			p, err := g.Build(opts.scale)
			if err != nil {
				return nil, err
			}
			targets = append(targets, target{name: g.Name, prog: p, seed: 1})
		}
	}
	return targets, nil
}

func benchTarget(name, inputName string, scale float64) (target, error) {
	s, err := workload.ByName(name)
	if err != nil {
		return target{}, err
	}
	input, err := workload.InputByName(inputName)
	if err != nil {
		return target{}, err
	}
	p, err := s.Build(input, scale)
	if err != nil {
		return target{}, err
	}
	return target{name: s.Name + "/" + input.Name, prog: p, seed: input.Seed}, nil
}
