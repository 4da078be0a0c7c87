// Command perfbench is the repository's benchmark: it measures the
// working-set pipeline end to end on four workloads and, in a separate
// traced run, per layer. See README.md for the workloads, the metrics
// and how each layer metric maps to an end-to-end one.
//
// Build and run it from the repository root with run.sh, which builds
// this module and cmd/wsanalyzed into .bench_build/:
//
//	bash perfbench/run.sh                      # every workload, untraced and traced
//	bash perfbench/run.sh -workload paper -seed 3 -seconds 20 -trace 0
//	bash perfbench/run.sh -o a.jsonl ...       # append run records to a file
//	bash perfbench/run.sh -compare a.jsonl b.jsonl
//
// A single-workload run prints its metrics, then, as its last line, one
// JSON object: the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1. It exits nonzero if any job failed or any
// output differed from the committed digests.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
)

// clock is the wall clock every measurement reads: the repository's
// one sanctioned source of ambient time.
var clock = obs.SystemClock()

// runTimeout bounds one workload run, so a hung child or server cannot
// hold the benchmark forever.
const runTimeout = 170 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: paper, graph-zoo, ablations, service, or all")
		seed         = flag.Uint64("seed", 1, "seed: the service job order and the traced run's inputs (1 = the paper's inputs)")
		seconds      = flag.Int("seconds", 20, "how long one untraced run measures, and the traced service load")
		traceMode    = flag.Int("trace", -1, "0: untraced run; 1: traced run; -1: both (with -workload all)")
		out          = flag.String("o", "", "append the run records to this JSON-lines file")
		compare      = flag.Bool("compare", false, "compare two record files: -compare a.jsonl b.jsonl")
		spec         = flag.String("benchmark", "BENCHMARK.json", "benchmark declaration holding the regression bounds (for -compare)")
		wsanalyzed   = flag.String("wsanalyzed", ".bench_build/wsanalyzed", "wsanalyzed binary for the service workload")
		traceOut     = flag.String("trace-out", ".bench_build/bench-trace.json", "file the traced run's spans are written to")
		child        = flag.String("child", "", "internal: run as a child process for this workload")
		mode         = flag.String("mode", modeRun, "internal: what a child runs (run, serial, setup, traced)")
	)
	flag.Parse()

	if *child != "" {
		w, err := workloadByName(*child)
		if err == nil {
			err = runChild(w, *mode, *seed)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare needs two record files")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *workloadName != "all" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		selected = []*workloadDef{w}
	}
	modes := []bool{false, true}
	switch *traceMode {
	case 0:
		modes = []bool{false}
	case 1:
		modes = []bool{true}
	case -1:
	default:
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0, 1 or -1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}

	var recs []*runRecord
	var traces []*tracer
	ok := true
	for _, w := range selected {
		for _, traced := range modes {
			rec, t := runWorkload(w, traced, *seed, time.Duration(*seconds)*time.Second, *wsanalyzed)
			rec.Seconds = *seconds
			printRecord(os.Stdout, rec)
			recs = append(recs, rec)
			if t != nil {
				traces = append(traces, t)
			}
			ok = ok && rec.Correct
		}
	}
	if len(traces) > 0 {
		if err := writeTraces(*traceOut, traces); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			ok = false
		}
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			ok = false
		}
	}
	if len(recs) == 1 {
		line, err := resultLine(recs[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload makes one run of w and returns its record, and the
// tracer of a traced run.
func runWorkload(w *workloadDef, traced bool, seed uint64, budget time.Duration, wsanalyzed string) (*runRecord, *tracer) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	rec := &runRecord{Workload: w.name, Trace: traced, Seed: seed, Scale: w.scale, Env: currentEnv()}
	var t *tracer
	switch {
	case traced:
		t = traceRun(ctx, w, seed, budget, wsanalyzed, rec)
	case w.service:
		measureService(ctx, w, seed, budget, wsanalyzed, setupProbes, rec)
	default:
		measureBatch(ctx, w, budget, rec)
	}
	if err := ctx.Err(); err != nil {
		rec.fail("run stopped: %v", err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := rec.Metrics[d.name]; !ok {
			rec.Errors = append(rec.Errors, "metric "+d.name+" was not measured")
			rec.set(d.name, 0, nil)
		}
	}
	rec.Correct = len(rec.Errors) == 0
	return rec, t
}
