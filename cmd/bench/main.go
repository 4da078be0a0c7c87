// Command bench measures the experiment harness and emits a
// machine-readable benchmark report (default BENCH_7.json) for
// regression tracking: per-experiment ns/op, allocs/op, bytes/op and
// approximate branch-stream throughput in Mbranches/s, and a
// sharding sweep over P ∈ {1, 2, 4, 8} profile shards recording wall
// clock, speedup vs P=1, throughput, and table memory at every point —
// at the suite level (where the harness clamps P to GOMAXPROCS; clamped
// points are marked and reuse the measurement of the effective P) and
// as a direct profile pass with exact sharding.
//
// Usage:
//
//	bench [-scale 0.1] [-o BENCH_7.json]
//	      [-baseline BENCH_7.json] [-tolerance 0.25] [-update]
//	      [-min-suite-speedup 1.0]
//
// With -baseline it compares each experiment's ns/op against the
// committed baseline and exits nonzero on a regression beyond the
// tolerance. Baselines are machine-specific: regenerate with -update
// when the reference hardware changes. -min-suite-speedup fails the run
// if any sweep point's suite-level speedup over P=1 drops below the
// bound — the guard against reintroducing the sharding regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/workload"
)

// ExperimentResult is one benchmarked experiment.
type ExperimentResult struct {
	Name          string  `json:"name"`
	NsPerOp       int64   `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	MBranchesPerS float64 `json:"mbranches_per_s"`
}

// ShardPoint is one P in the sharding sweep.
type ShardPoint struct {
	Shards int `json:"shards"`
	// Clamped marks suite-level points where the harness clamped P to
	// GOMAXPROCS (sharding beyond the machine's parallelism is pure
	// overhead). A clamped point reuses the measurement of its
	// effective P, so its suite speedup is 1.0 by construction; the
	// profile-level columns always use exact sharding.
	Clamped              bool    `json:"clamped"`
	SuiteNs              int64   `json:"suite_ns"`
	SuiteSpeedup         float64 `json:"suite_speedup"`
	SuiteMBranchesPerS   float64 `json:"suite_mbranches_per_s"`
	ProfileNs            int64   `json:"profile_ns"`
	ProfileSpeedup       float64 `json:"profile_speedup"`
	ProfileMBranchesPerS float64 `json:"profile_mbranches_per_s"`
	// ShardTableBytes is the sharding-only overhead (staging batches
	// and partition headers) — the memory the sharded mode costs on
	// top of the counters themselves; 0 at P=1.
	ShardTableBytes uint64 `json:"shard_table_bytes"`
	// TableBytes is the absolute footprint of the interleave counter
	// tables in either mode.
	TableBytes uint64 `json:"table_bytes"`
}

// ShardingComparison sweeps the intra-benchmark hot paths over shard
// counts: the full table+figure composition (one benchmark worker, so
// only intra-benchmark parallelism differs) and a direct unfiltered
// profile pass on one benchmark. Output is byte-identical at
// every P; only time and memory differ — the differential suites in
// internal/profile enforce this, and the merged pair count is checked
// for equality across the sweep here.
type ShardingComparison struct {
	ProfileBenchmark string       `json:"profile_benchmark"`
	MergedPairs      int          `json:"merged_pairs"`
	Sweep            []ShardPoint `json:"sweep"`
}

// Report is the BENCH_7.json schema.
type Report struct {
	Scale       float64            `json:"scale"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	Experiments []ExperimentResult `json:"experiments"`
	Sharding    ShardingComparison `json:"sharding"`
}

// shardSweep is the sharding sweep's shard counts.
var shardSweep = []int{1, 2, 4, 8}

func main() {
	var (
		scale      = flag.Float64("scale", 0.1, "workload scale factor for the benchmarks")
		out        = flag.String("o", "BENCH_7.json", "write the benchmark report here")
		baseline   = flag.String("baseline", "", "compare against this baseline report")
		tolerance  = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression vs the baseline")
		update     = flag.Bool("update", false, "overwrite the baseline with this run's report")
		metrics    = flag.Bool("metrics", false, "instrument the sharding sweep and dump the metrics registry (text encoding) to stderr")
		minSpeedup = flag.Float64("min-suite-speedup", 0, "fail if any sweep point's suite-level sharding speedup is below this (0 disables)")
		predictor  = flag.String("predictor", "", "also benchmark the predictor zoo for these comma-separated kinds (pag, gshare, tage, perceptron; 'all' runs the whole zoo)")
		graphsFlag = flag.Bool("graphs", false, "also benchmark the graph-workload experiment (full zoo over the BFS/CC/triangle family) and the predictability characterization")
	)
	flag.Parse()

	zooKinds, err := parseZooKinds(*predictor)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	rep, err := measure(obs.SystemClock(), *scale, zooKinds, *graphsFlag, obs.New(reg))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if reg != nil {
		if err := obs.WriteText(os.Stderr, reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *minSpeedup > 0 {
		for _, pt := range rep.Sharding.Sweep {
			if pt.SuiteSpeedup < *minSpeedup {
				fmt.Fprintf(os.Stderr, "bench: suite speedup %.3f at shards=%d below required %.2f\n",
					pt.SuiteSpeedup, pt.Shards, *minSpeedup)
				os.Exit(1)
			}
		}
	}

	if *baseline != "" && !*update {
		if err := compare(*baseline, rep, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if *update && *baseline != "" && *baseline != *out {
		if err := os.WriteFile(*baseline, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("updated baseline %s\n", *baseline)
	}
}

// experiment is one benchmarkable harness experiment.
type experiment struct {
	name string
	run  func(*harness.Suite) error
}

func experiments(zooKinds []string, withGraphs bool) []experiment {
	table := func(n int) func(*harness.Suite) error {
		return func(s *harness.Suite) error { return discardTable(s, n) }
	}
	figure := func(n int) func(*harness.Suite) error {
		return func(s *harness.Suite) error { return discardFigure(s, n) }
	}
	exps := []experiment{
		{"table1", table(1)},
		{"table2", table(2)},
		{"table3", table(3)},
		{"table4", table(4)},
		{"figure3", figure(3)},
		{"figure4", figure(4)},
	}
	// The zoo entries are opt-in (-predictor): each measures one zoo
	// member's full allocated-vs-conventional run over the benchmark set,
	// so predictor update-loop throughput is tracked per scheme. compare()
	// skips experiments absent from the baseline, so opt-in entries don't
	// invalidate committed baselines.
	for _, kind := range zooKinds {
		kind := kind
		exps = append(exps, experiment{"zoo-" + kind, func(s *harness.Suite) error {
			return harness.RunZoo(s, io.Discard, false, kind)
		}})
	}
	// The graph entries are opt-in (-graphs) the same way: "graphs"
	// measures the full zoo over the graph family end to end (generate,
	// compile, execute, profile, allocate, simulate), "charact" the
	// characterization pass over the classic and graph benchmarks.
	if withGraphs {
		exps = append(exps,
			experiment{"graphs", func(s *harness.Suite) error {
				return harness.RunGraphs(s, io.Discard, false)
			}},
			experiment{"charact", func(s *harness.Suite) error {
				return harness.RunCharact(s, io.Discard, false)
			}},
		)
	}
	return exps
}

// parseZooKinds parses -predictor: comma-separated zoo kinds, "all" for
// the whole zoo, empty for none. Unknown kinds fail before any run.
func parseZooKinds(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		return predict.ZooKinds(), nil
	}
	var kinds []string
	for _, k := range strings.Split(s, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if !predict.ValidZooKind(k) {
			return nil, fmt.Errorf("unknown predictor %q (have %v)", k, predict.ZooKinds())
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// Rendering goes to io.Discard: formatting is part of the experiment,
// terminal I/O is not.
func discardTable(s *harness.Suite, n int) error {
	return harness.RunTable(s, io.Discard, n, false)
}

func discardFigure(s *harness.Suite, n int) error {
	return harness.RunFigure(s, io.Discard, n, false)
}

// timeRun measures f's wall-clock duration on the injected clock — the
// single timing primitive every comparison below uses, so bench output
// is testable under a FakeClock (no ambient time.Now anywhere here).
func timeRun(clock obs.Clock, f func() error) (time.Duration, error) {
	start := clock.Now()
	if err := f(); err != nil {
		return 0, err
	}
	return clock.Now().Sub(start), nil
}

func measure(clock obs.Clock, scale float64, zooKinds []string, withGraphs bool, m *obs.Metrics) (*Report, error) {
	rep := &Report{Scale: scale, GoMaxProcs: runtime.GOMAXPROCS(0)}

	for _, e := range experiments(zooKinds, withGraphs) {
		e := e
		var benchErr error
		var branchesPerOp uint64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh suite per iteration measures the experiment
				// cold: workload execution, filtering, profiling,
				// analysis, simulation and rendering.
				s := harness.NewSuite(harness.Config{Scale: scale})
				if err := e.run(s); err != nil {
					benchErr = err
					b.FailNow()
				}
				if i == 0 {
					branchesPerOp = streamBranches(s)
				}
			}
		})
		if benchErr != nil {
			return nil, fmt.Errorf("%s: %w", e.name, benchErr)
		}
		res := ExperimentResult{
			Name:        e.name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if r.NsPerOp() > 0 {
			res.MBranchesPerS = float64(branchesPerOp) / (float64(r.NsPerOp()) / 1e9) / 1e6
		}
		fmt.Printf("%-8s %12d ns/op %12d B/op %9d allocs/op %8.2f Mbranches/s\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.MBranchesPerS)
		rep.Experiments = append(rep.Experiments, res)
	}

	sharding, err := compareSharding(clock, scale, shardSweep, m)
	if err != nil {
		return nil, err
	}
	rep.Sharding = *sharding
	for _, pt := range sharding.Sweep {
		clamp := ""
		if pt.Clamped {
			clamp = " (clamped)"
		}
		fmt.Printf("sharding P=%d%-10s suite %v %.2fx %.2f Mbr/s; profile %s %v %.2fx %.2f Mbr/s, overhead %d B, tables %d B\n",
			pt.Shards, clamp, time.Duration(pt.SuiteNs), pt.SuiteSpeedup, pt.SuiteMBranchesPerS,
			sharding.ProfileBenchmark, time.Duration(pt.ProfileNs), pt.ProfileSpeedup, pt.ProfileMBranchesPerS,
			pt.ShardTableBytes, pt.TableBytes)
	}
	return rep, nil
}

// compareSharding sweeps the intra-benchmark hot paths over the shard
// counts in sweep: the full table+figure composition (one benchmark
// worker, so only intra-benchmark parallelism differs), and a direct
// unfiltered profile pass over the heaviest benchmark's branch stream,
// where the table memory costs are also read.
//
// The harness clamps suite-level sharding to GOMAXPROCS (running more
// workers than cores is pure overhead), so sweep points beyond the
// machine's parallelism are marked Clamped and reuse the measurement of
// their effective P — by construction their suite speedup is that of
// the clamp target. The profile pass always uses exact sharding.
func compareSharding(clock obs.Clock, scale float64, sweep []int, m *obs.Metrics) (*ShardingComparison, error) {
	type suiteRun struct {
		ns       int64
		branches uint64
	}
	maxP := runtime.GOMAXPROCS(0)
	suiteByEff := make(map[int]suiteRun)
	runSuite := func(profileShards int) (suiteRun, error) {
		s := harness.NewSuite(harness.Config{
			Scale: scale, Workers: 1, ProfileShards: profileShards, Metrics: m,
		})
		elapsed, err := timeRun(clock, func() error {
			return harness.RunAll(s, io.Discard, false)
		})
		if err != nil {
			return suiteRun{}, err
		}
		return suiteRun{ns: elapsed.Nanoseconds(), branches: streamBranches(s)}, nil
	}

	const profileBench = "gcc" // largest static branch set in the suite
	spec, err := workload.ByName(profileBench)
	if err != nil {
		return nil, err
	}
	runCfg := workload.RunConfig{Input: workload.InputRef, Scale: scale}

	c := &ShardingComparison{ProfileBenchmark: profileBench, MergedPairs: -1}
	var suiteBase, profBase int64
	for _, p := range sweep {
		eff := p
		if eff > maxP {
			eff = maxP
		}
		sr, ok := suiteByEff[eff]
		if !ok {
			if sr, err = runSuite(eff); err != nil {
				return nil, err
			}
			suiteByEff[eff] = sr
		}

		prof := profile.NewProfiler(profileBench, workload.InputRef.Name,
			profile.WithShards(p), profile.WithMetrics(m.Profile()))
		prof.Reserve(spec.StaticBranches())
		var pairs int
		profElapsed, err := timeRun(clock, func() error {
			if _, err := spec.RunInto(runCfg, prof); err != nil {
				return err
			}
			merged := prof.Profile()
			pairs = merged.Pairs.Len()
			merged.Release()
			return nil
		})
		if err != nil {
			return nil, err
		}
		if c.MergedPairs < 0 {
			c.MergedPairs = pairs
		} else if pairs != c.MergedPairs {
			return nil, fmt.Errorf("sharding sweep: merged pair count diverged at P=%d: %d vs %d", p, pairs, c.MergedPairs)
		}

		pt := ShardPoint{
			Shards:          p,
			Clamped:         eff != p,
			SuiteNs:         sr.ns,
			ProfileNs:       profElapsed.Nanoseconds(),
			ShardTableBytes: prof.ShardTableBytes(),
			TableBytes:      prof.TableBytes(),
		}
		if sr.ns > 0 {
			pt.SuiteMBranchesPerS = float64(sr.branches) / (float64(sr.ns) / 1e9) / 1e6
		}
		if pt.ProfileNs > 0 {
			pt.ProfileMBranchesPerS = float64(prof.Branches()) / (float64(pt.ProfileNs) / 1e9) / 1e6
		}
		if p == sweep[0] {
			suiteBase, profBase = sr.ns, pt.ProfileNs
		}
		if sr.ns > 0 {
			pt.SuiteSpeedup = float64(suiteBase) / float64(sr.ns)
		}
		if pt.ProfileNs > 0 {
			pt.ProfileSpeedup = float64(profBase) / float64(pt.ProfileNs)
		}
		c.Sweep = append(c.Sweep, pt)
	}
	return c, nil
}

// streamBranches estimates the branch events that flowed through the
// experiment's artifact pipeline: every cached benchmark contributed
// its full stream (execution) plus its filtered stream (profiling).
// It is a throughput denominator, not an exact event count — figure
// re-executions and replays are not included. See README "Performance".
func streamBranches(s *harness.Suite) uint64 {
	var total uint64
	for _, name := range workload.Names() {
		for _, input := range []workload.InputSet{workload.InputRef, workload.InputA, workload.InputB} {
			a, ok := s.Cached(name, input)
			if !ok {
				continue
			}
			total += a.Filter.DynamicTotal + a.Filter.DynamicKept
		}
	}
	for _, name := range workload.GraphNames() {
		if a, ok := s.GraphCached(name); ok {
			total += a.Stats.CondBranches
		}
	}
	return total
}

// compare fails on any experiment whose ns/op regressed beyond
// tolerance relative to the baseline report. New experiments (absent
// from the baseline) pass; missing ones are reported.
func compare(baselinePath string, rep *Report, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline: %w", err)
	}
	if base.Scale != rep.Scale {
		fmt.Printf("baseline scale %v differs from run scale %v; comparing anyway\n", base.Scale, rep.Scale)
	}
	baseBy := make(map[string]ExperimentResult, len(base.Experiments))
	for _, e := range base.Experiments {
		baseBy[e.Name] = e
	}
	var failures []string
	for _, e := range rep.Experiments {
		b, ok := baseBy[e.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		ratio := float64(e.NsPerOp) / float64(b.NsPerOp)
		status := "ok"
		if ratio > 1+tolerance {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %d ns/op vs baseline %d (%.2fx > %.2fx allowed)",
					e.Name, e.NsPerOp, b.NsPerOp, ratio, 1+tolerance))
		}
		fmt.Printf("compare %-8s %.2fx vs baseline (%s)\n", e.Name, ratio, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark regression(s):\n\t%s", len(failures), joinLines(failures))
	}
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n\t"
		}
		out += l
	}
	return out
}
