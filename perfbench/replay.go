package main

import (
	"fmt"
	"io"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/progcheck"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// This file is the traced run: it repeats, serially and from outside
// the harness, every layer call one harness experiment makes, with a
// span around each. Each benchmark's branch stream is recorded once and
// replayed from memory into the frequency filter, the profilers and the
// predictor sims, so VM time appears under vm.execute alone (the
// harness re-executes the VM instead). Its rendered output goes through
// the harness renderers and must be byte-identical to the harness's —
// the digest check and the tests hold the two together.

// stream is a recorded branch stream packed four bytes an event, the
// branch's word address and its direction, so that replaying it costs
// about what re-executing the VM costs the harness, cache pollution
// included. Replays pass an icount of 0: no consumer's output depends
// on it (profiles take the run's count from SetInstructions).
type stream struct {
	events       []uint32 // pc/4<<1 | taken
	instructions uint64
}

// Branch records one event; VM branch addresses are word-aligned and
// far below 2^33.
func (s *stream) Branch(pc uint64, taken bool, _ uint64) {
	e := uint32(pc>>2) << 1
	if taken {
		e |= 1
	}
	s.events = append(s.events, e) //reprolint:allow hotpath record pre-sizes classic streams; graph streams grow geometrically
}

func (s *stream) replay(sink vm.BranchSink) {
	for _, e := range s.events {
		sink.Branch(uint64(e>>1)<<2, e&1 != 0, 0)
	}
}

// graphMaxInstructions is the defensive instruction cap
// workload.GraphSpec.RunInto applies to graph kernels.
const graphMaxInstructions = 1 << 28

// layerCounts are the work counts the traced run makes at its layer
// boundaries.
type layerCounts struct {
	vmRuns, instructions   uint64
	dynKept, dynTotal      uint64
	profileEvents          uint64
	pairIncrements         uint64
	profileTableBytes      uint64
	graphEdges             uint64
	colorings, allocations uint64
	simUpdates             uint64
}

// recording is one VM run with its whole branch stream.
type recording struct {
	full  *stream
	stats vm.Stats
}

// artifact is one classic benchmark's recorded run and profile.
type artifact struct {
	recording
	spec    workload.Spec
	input   workload.InputSet
	filter  trace.FilterResult // its counts; the stream is kept
	kept    *stream
	profile *profile.Profile
}

// graphArtifact is one graph benchmark's recorded run and profile.
type graphArtifact struct {
	recording
	spec    workload.GraphSpec
	prog    *program.Program
	profile *profile.Profile
}

type replayer struct {
	t      *tracer
	cfg    harness.Config
	seed   uint64
	m      *obs.Metrics // clique enumeration counters
	reg    *obs.Registry
	counts layerCounts

	arts     map[string]*artifact
	programs map[string]*program.Program // graph programs, for verification
}

// newReplayer replays at scale with the classic benchmarks' inputs
// drawn from seed (see reseed).
func newReplayer(t *tracer, scale float64, seed uint64) *replayer {
	reg := obs.NewRegistry()
	cfg := harness.Config{Scale: scale, Workers: 1, ProfileShards: 1}.Defaults()
	return &replayer{t: t, cfg: cfg, seed: seed, reg: reg, m: obs.New(reg)}
}

// reset drops the artifact caches, as a fresh harness.Suite starts
// empty.
func (r *replayer) reset() {
	r.arts = make(map[string]*artifact)
	r.programs = make(map[string]*program.Program)
}

func (r *replayer) input(in workload.InputSet) workload.InputSet {
	return reseed(in, r.seed)
}

// reseed draws an input set from the benchmark seed: seed 1 is the
// paper's inputs, any other offsets the input set's seed by seed-1.
// Graph kernels keep their seeds: the harness fixes them in its graph
// registry, and the traced run's reference must run the same inputs.
func reseed(in workload.InputSet, seed uint64) workload.InputSet {
	in.Seed += seed - 1
	return in
}

// record executes p once, keeping its whole branch stream.
func (r *replayer) record(bench string, p *program.Program, cfg vm.Config, reserve int) (recording, error) {
	rec := &stream{events: make([]uint32, 0, reserve)}
	cfg.Sink = rec
	var stats vm.Stats
	err := r.t.do("vm.execute", bench, func() (err error) {
		stats, err = vm.Run(p, cfg)
		return err
	})
	if err != nil {
		return recording{}, fmt.Errorf("running %s: %w", bench, err)
	}
	r.counts.vmRuns++
	r.counts.instructions += stats.Instructions
	rec.instructions = stats.Instructions
	return recording{rec, stats}, nil
}

// profile streams tr into a fresh profiler and extracts the profile.
func (r *replayer) profile(bench, input string, s *stream, reserve int, opts ...profile.Option) *profile.Profile {
	var prof *profile.Profiler
	_ = r.t.do("profile.stream", bench, func() error {
		prof = profile.NewProfiler(bench, input, opts...)
		prof.Reserve(reserve)
		s.replay(prof)
		prof.SetInstructions(s.instructions)
		return nil
	})
	return r.finish(bench, prof)
}

// finish extracts a profiler's profile and counts its work: events,
// counter-table bytes, and pair increments, which sum to the extracted
// pair counts.
func (r *replayer) finish(bench string, prof *profile.Profiler) *profile.Profile {
	var out *profile.Profile
	_ = r.t.do("profile.finish", bench, func() error {
		out = prof.Profile()
		return nil
	})
	r.counts.profileEvents += prof.Branches()
	r.counts.profileTableBytes += prof.TableBytes()
	out.Pairs.Range(func(_, n uint64) bool {
		r.counts.pairIncrements += n
		return true
	})
	return out
}

// artifact is the replay of harness.Suite.Artifacts in fused mode:
// build, execute, frequency-filter, and profile the filtered stream
// with the default window.
func (r *replayer) artifact(name string, in workload.InputSet) (*artifact, error) {
	in = r.input(in)
	key := name + "/" + in.Name
	if a, ok := r.arts[key]; ok {
		return a, nil
	}
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	a := &artifact{spec: spec, input: in}
	var p *program.Program
	if err := r.t.do("workload.build", name, func() (err error) {
		p, err = spec.Build(in, r.cfg.Scale)
		return err
	}); err != nil {
		return nil, fmt.Errorf("building %s: %w", name, err)
	}
	a.recording, err = r.record(name, p, vm.Config{DataSeed: in.Seed}, int(spec.DynamicBranches(r.cfg.Scale)))
	if err != nil {
		return nil, err
	}
	_ = r.t.do("trace.filter", name, func() error {
		var freq trace.FreqCounter
		a.full.replay(&freq)
		keep, dynKept := trace.SelectByCoverage(freq.Stats(), spec.AnalyzeCoverage)
		dynTotal, staticTotal := freq.Total()
		a.kept = &stream{events: make([]uint32, 0, dynKept), instructions: a.stats.Instructions}
		a.full.replay(trace.NewFilterSink(keep, a.kept))
		a.filter = trace.FilterResult{
			StaticKept: len(keep), StaticTotal: staticTotal,
			DynamicKept: dynKept, DynamicTotal: dynTotal,
		}
		return nil
	})
	r.counts.dynKept += a.filter.DynamicKept
	r.counts.dynTotal += a.filter.DynamicTotal
	a.profile = r.profile(name, in.Name, a.kept, spec.StaticBranches(),
		profile.WithWindow(2*spec.WorkingSetSize()))
	r.arts[key] = a
	return a, nil
}

// analysis is the part of a core.AnalysisResult the tables print.
type analysis struct {
	sets       int
	avgStatic  float64
	avgDynamic float64
	maxSet     int
	truncated  bool
	edges      int
}

// analyze is core.Analyze with its two graph-layer calls, the graph
// build and the working-set extraction, timed as child spans.
func (r *replayer) analyze(bench string, p *profile.Profile, threshold uint64, def core.SetDefinition) analysis {
	var res analysis
	_ = r.t.do("core.analyze", bench, func() error {
		var g *graph.Graph
		_ = r.t.do("graph.build", bench, func() error {
			g = p.BuildGraph(threshold)
			return nil
		})
		var cliques [][]int32
		_ = r.t.do("graph.cliques", bench, func() error {
			if def == core.GreedyPartition {
				cliques = g.GreedyCliquePartition(false)
				return nil
			}
			cr := g.MaximalCliquesObs(r.cfg.CliqueBudget, false, r.cfg.ProfileShards, r.m.Clique())
			cliques, res.truncated = cr.Cliques, cr.Truncated
			return nil
		})
		res.edges = g.NumEdges()
		// Integer sums: core.Analyze sums the same exact integers in
		// float64, so both agree bit for bit in any order.
		var members, num, den uint64
		for _, c := range cliques {
			var w uint64
			for _, id := range c {
				w += p.Exec[id]
			}
			members += uint64(len(c))
			num += uint64(len(c)) * w
			den += w
			res.maxSet = max(res.maxSet, len(c))
		}
		res.sets = len(cliques)
		if res.sets > 0 {
			res.avgStatic = float64(members) / float64(res.sets)
		}
		if den > 0 {
			res.avgDynamic = float64(num) / float64(den)
		}
		return nil
	})
	r.counts.graphEdges += uint64(res.edges)
	return res
}

func (r *replayer) allocate(bench string, p *profile.Profile, size int, classified bool) (*core.AllocationMap, error) {
	var alloc *core.Allocation
	err := r.t.do("core.allocate", bench, func() (err error) {
		alloc, err = core.Allocate(p, core.AllocationConfig{
			TableSize: size, Threshold: r.cfg.Threshold, UseClassification: classified,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("allocating %s at %d: %w", bench, size, err)
	}
	r.counts.allocations++
	return alloc.Map, nil
}

// simulate builds predictors and drives a recording through all of
// them at once.
func (r *replayer) simulate(bench string, rc recording, build func() ([]predict.Predictor, error)) ([]*predict.Sim, error) {
	var sims []*predict.Sim
	err := r.t.do("predict.simulate", bench, func() error {
		preds, err := build()
		if err != nil {
			return err
		}
		sinks := make(vm.MultiSink, len(preds))
		for i, p := range preds {
			sims = append(sims, predict.NewSim(p))
			sinks[i] = sims[i]
		}
		rc.full.replay(sinks)
		return nil
	})
	for _, s := range sims {
		r.counts.simUpdates += s.Branches()
	}
	return sims, err
}

// render times one harness renderer call and writes its output.
func (r *replayer) render(w io.Writer, title string, f func() string) {
	_ = r.t.do("harness.render", "", func() error {
		fmt.Fprintf(w, "\n## %s\n\n", title)
		_, _ = io.WriteString(w, f())
		return nil
	})
}

// --- paper: harness.RunAll ---

func (r *replayer) paper(w io.Writer) error {
	for n := 1; n <= 4; n++ {
		if err := r.tableSection(w, n); err != nil {
			return err
		}
	}
	if err := r.figureSection(w, false); err != nil {
		return err
	}
	return r.figureSection(w, true)
}

// tableSection replays harness.RunTable.
func (r *replayer) tableSection(w io.Writer, n int) error {
	switch n {
	case 1:
		var rows []harness.Table1Row
		for _, name := range workload.Names() {
			a, err := r.artifact(name, workload.InputRef)
			if err != nil {
				return err
			}
			rows = append(rows, harness.Table1Row{
				Benchmark: name, InputSet: a.input.Name,
				TotalDynamic: a.filter.DynamicTotal, AnalyzedDynamic: a.filter.DynamicKept,
				Coverage:    a.filter.Coverage(),
				StaticTotal: a.filter.StaticTotal, StaticAnalyzed: a.filter.StaticKept,
			})
		}
		r.render(w, "Table 1: benchmarks, dynamic branches, and analysis coverage",
			func() string { return harness.RenderTable1(rows, false) })
	case 2:
		var rows []harness.Table2Row
		for _, name := range harness.Table2Benchmarks {
			a, err := r.artifact(name, workload.InputRef)
			if err != nil {
				return err
			}
			res := r.analyze(name, a.profile, r.cfg.Threshold, core.MaximalCliques)
			rows = append(rows, harness.Table2Row{
				Benchmark: name, NumSets: res.sets, AvgStatic: res.avgStatic,
				AvgDynamic: res.avgDynamic, MaxSet: res.maxSet, Truncated: res.truncated,
			})
		}
		r.render(w, "Table 2: branch working set sizes",
			func() string { return harness.RenderTable2(rows, false) })
	case 3, 4:
		classified := n == 4
		var rows []harness.SizeRow
		for _, sb := range harness.SizedBenchmarkRows() {
			a, err := r.artifact(sb.Name, sb.Input)
			if err != nil {
				return err
			}
			var res core.SizeSearchResult
			if err := r.t.do("core.size", sb.Name, func() (err error) {
				res, err = core.RequiredBHTSize(a.profile, r.cfg.BaselineBHT, core.AllocationConfig{
					Threshold: r.cfg.Threshold, UseClassification: classified,
				})
				return err
			}); err != nil {
				return fmt.Errorf("sizing %s: %w", sb.Label, err)
			}
			r.counts.colorings += uint64(res.Colorings)
			rows = append(rows, harness.SizeRow{
				Label: sb.Label, RequiredSize: res.RequiredSize,
				AllocCost: res.AllocCost, BaselineCost: res.BaselineCost,
			})
		}
		title := "Table 3: BHT size required for branch allocation"
		if classified {
			title = "Table 4: BHT size required with branch classification"
		}
		r.render(w, title, func() string { return harness.RenderSizeTable(rows, r.cfg.BaselineBHT, false) })
	default:
		return fmt.Errorf("no table %d", n)
	}
	return nil
}

// figureSection replays harness.RunFigure.
func (r *replayer) figureSection(w io.Writer, classified bool) error {
	sizes := r.cfg.AllocBHTSizes
	f := &harness.FigureResult{Classified: classified, Sizes: sizes}
	for _, name := range harness.FigureBenchmarks {
		a, err := r.artifact(name, workload.InputRef)
		if err != nil {
			return err
		}
		maps := make([]*core.AllocationMap, len(sizes))
		for i, size := range sizes {
			if maps[i], err = r.allocate(name, a.profile, size, classified); err != nil {
				return err
			}
		}
		sims, err := r.simulate(name, a.recording, func() ([]predict.Predictor, error) {
			conv, err := predict.NewPAg(predict.PCModIndexer{Entries: r.cfg.BaselineBHT}, r.cfg.PHTEntries)
			if err != nil {
				return nil, err
			}
			ifree, err := predict.NewPAg(predict.NewIdealIndexer(), r.cfg.PHTEntries)
			if err != nil {
				return nil, err
			}
			preds := []predict.Predictor{conv, ifree}
			for _, m := range maps {
				p, err := predict.NewPAg(predict.AllocIndexer{Map: m}, r.cfg.PHTEntries)
				if err != nil {
					return nil, err
				}
				preds = append(preds, p)
			}
			return preds, nil
		})
		if err != nil {
			return err
		}
		row := harness.FigureRow{
			Benchmark: name, Conventional: sims[0].MispredictRate(),
			InterferenceFree: sims[1].MispredictRate(), Branches: sims[0].Branches(),
		}
		for _, s := range sims[2:] {
			row.Alloc = append(row.Alloc, s.MispredictRate())
		}
		f.Rows = append(f.Rows, row)
	}
	f.Average = averageRow(f.Rows, len(sizes))
	title := "Figure 3: misprediction rates, branch allocation"
	if classified {
		title = "Figure 4: misprediction rates, allocation with classification"
	}
	r.render(w, title, func() string {
		return harness.RenderFigure(f, false) + fmt.Sprintf("\naverage improvement of alloc-%d over conventional: %.1f%%\n",
			f.Sizes[len(f.Sizes)-1], 100*f.Average.Improvement())
	})
	return nil
}

// averageRow is the figures' arithmetic-mean row, summed in the same
// order as the harness.
func averageRow(rows []harness.FigureRow, sizes int) harness.FigureRow {
	avg := harness.FigureRow{Benchmark: "average", Alloc: make([]float64, sizes)}
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		avg.Conventional += r.Conventional
		avg.InterferenceFree += r.InterferenceFree
		avg.Branches += r.Branches
		for i := range r.Alloc {
			avg.Alloc[i] += r.Alloc[i]
		}
	}
	n := float64(len(rows))
	avg.Conventional /= n
	avg.InterferenceFree /= n
	for i := range avg.Alloc {
		avg.Alloc[i] /= n
	}
	return avg
}

// --- graph-zoo: harness.RunGraphs ---

// graphArtifact is the replay of harness.Suite.GraphArtifacts: build,
// execute, and profile the whole stream with an unbounded window.
func (r *replayer) graphArtifact(name string) (*graphArtifact, error) {
	spec, err := workload.GraphByName(name)
	if err != nil {
		return nil, err
	}
	a := &graphArtifact{spec: spec}
	if err := r.t.do("workload.build", name, func() (err error) {
		a.prog, err = spec.Build(r.cfg.Scale)
		return err
	}); err != nil {
		return nil, fmt.Errorf("building graph %s: %w", name, err)
	}
	a.recording, err = r.record(name, a.prog, vm.Config{MaxInstructions: graphMaxInstructions}, 0)
	if err != nil {
		return nil, err
	}
	if !a.stats.Halted {
		return nil, fmt.Errorf("graph %s hit the instruction cap", name)
	}
	a.profile = r.profile(name, "ref", a.full, a.prog.NumCondBranches())
	r.programs[name] = a.prog
	return a, nil
}

func (r *replayer) graphZoo(w io.Writer, kinds []string) error {
	if len(kinds) == 0 {
		kinds = predict.ZooKinds()
	}
	sizes := r.cfg.AllocBHTSizes
	res := &harness.GraphsResult{Kinds: kinds, Sizes: sizes, Rows: make(map[string][]harness.GraphRow)}
	for _, pair := range workload.GraphPairNames() {
		for _, suffix := range []string{"", "-ba"} {
			name := pair + suffix
			a, err := r.graphArtifact(name)
			if err != nil {
				return err
			}
			maps := make([]*core.AllocationMap, len(sizes))
			for i, size := range sizes {
				if maps[i], err = r.allocate(name, a.profile, size, false); err != nil {
					return err
				}
			}
			sims, err := r.simulate(name, a.recording, func() ([]predict.Predictor, error) {
				var preds []predict.Predictor
				for _, kind := range kinds {
					for si, size := range sizes {
						cfg := predict.ZooConfig{TableSize: size, PHTEntries: r.cfg.PHTEntries}
						conv, err := predict.NewZooPredictor(kind, predict.PCModIndexer{Entries: size}, cfg)
						if err != nil {
							return nil, err
						}
						alloc, err := predict.NewZooPredictor(kind, predict.AllocIndexer{Map: maps[si]}, cfg)
						if err != nil {
							return nil, err
						}
						preds = append(preds, conv, alloc)
					}
				}
				return preds, nil
			})
			if err != nil {
				return err
			}
			for ki, kind := range kinds {
				row := harness.GraphRow{
					Benchmark: a.spec.PairName(), Variant: a.spec.Variant(), Kind: kind,
					Static: a.prog.NumCondBranches(), TakenRate: a.stats.TakenRate(),
				}
				for si := range sizes {
					conv, alloc := sims[2*(ki*len(sizes)+si)], sims[2*(ki*len(sizes)+si)+1]
					row.Conv = append(row.Conv, conv.MispredictRate())
					row.Alloc = append(row.Alloc, alloc.MispredictRate())
					row.Branches = conv.Branches()
				}
				res.Rows[kind] = append(res.Rows[kind], row)
			}
		}
	}
	r.render(w, "Extended: graph workloads — branchy vs branch-avoiding kernels under the zoo",
		func() string { return harness.RenderGraphs(res, false) })

	// harness.RunGraphVerification over the programs built above.
	var rows []harness.GraphVerifyRow
	for _, pair := range workload.GraphPairNames() {
		for _, suffix := range []string{"", "-ba"} {
			name := pair + suffix
			var rep *progcheck.Report
			_ = r.t.do("progcheck.check", name, func() error {
				rep = progcheck.Check(r.programs[name])
				return nil
			})
			row := harness.GraphVerifyRow{Benchmark: pair, Variant: "branchy", Summary: rep.Summary()}
			if suffix != "" {
				row.Variant = "avoiding"
			}
			for _, f := range rep.Findings {
				switch f.Severity {
				case progcheck.SevError:
					row.Errors++
				case progcheck.SevWarn:
					row.Warns++
				default:
					row.Infos++
				}
			}
			if row.Errors > 0 {
				return fmt.Errorf("progcheck graph %s: %d error findings", name, row.Errors)
			}
			rows = append(rows, row)
		}
	}
	r.render(w, "Static verification: branch-site classes per graph kernel (package progcheck)",
		func() string { return harness.RenderGraphVerification(rows, false) })
	return nil
}

// --- ablations: harness.RunAblations ---

func (r *replayer) ablations(w io.Writer) error {
	arts := make([]*artifact, len(harness.AblationBenchmarks))
	for i, name := range harness.AblationBenchmarks {
		a, err := r.artifact(name, workload.InputRef)
		if err != nil {
			return err
		}
		arts[i] = a
	}

	var th []harness.ThresholdRow
	for _, a := range arts {
		for _, t := range []uint64{50, core.DefaultThreshold, 500, 1000} {
			res := r.analyze(a.spec.Name, a.profile, t, core.MaximalCliques)
			th = append(th, harness.ThresholdRow{
				Benchmark: a.spec.Name, Threshold: t, NumSets: res.sets,
				AvgStatic: res.avgStatic, AvgDynamic: res.avgDynamic, Edges: res.edges,
			})
		}
	}
	r.render(w, "Ablation: pruning threshold sensitivity (paper Section 4.2 claim)",
		func() string { return harness.RenderAblationThreshold(th, false) })

	var def []harness.DefinitionRow
	for _, a := range arts {
		mc := r.analyze(a.spec.Name, a.profile, r.cfg.Threshold, core.MaximalCliques)
		gp := r.analyze(a.spec.Name, a.profile, r.cfg.Threshold, core.GreedyPartition)
		def = append(def, harness.DefinitionRow{
			Benchmark: a.spec.Name, CliqueSets: mc.sets, CliqueAvgStatic: mc.avgStatic,
			PartitionSets: gp.sets, PartitionAvg: gp.avgStatic, CliqueTruncated: mc.truncated,
		})
	}
	r.render(w, "Ablation: working-set definition (maximal cliques vs greedy partition)",
		func() string { return harness.RenderAblationDefinition(def, false) })

	var grp []harness.GroupedRow
	for _, a := range arts {
		ind := r.analyze(a.spec.Name, a.profile, r.cfg.Threshold, core.MaximalCliques)
		var g *core.GroupedResult
		if err := r.t.do("core.analyze", a.spec.Name, func() (err error) {
			g, err = core.AnalyzeGrouped(a.profile, core.AnalysisConfig{
				Threshold: r.cfg.Threshold, CliqueBudget: r.cfg.CliqueBudget, Workers: r.cfg.ProfileShards,
			}, classify.Default())
			return err
		}); err != nil {
			return err
		}
		grp = append(grp, harness.GroupedRow{
			Benchmark: a.spec.Name, IndividualSets: ind.sets, IndividualAvg: ind.avgStatic,
			GroupedSets: g.Analysis.NumSets(), GroupedAvg: g.Analysis.AvgStaticSize(),
			BiasedFraction: g.Classification.BiasedDynamicFraction(a.profile),
		})
	}
	r.render(w, "Ablation: pre-classified branch groups (paper Sections 2/6 extension)",
		func() string { return harness.RenderAblationGrouped(grp, false) })

	// The window ablation feeds one pass over li's filtered stream to a
	// profiler per window.
	li, err := r.artifact("li", workload.InputRef)
	if err != nil {
		return err
	}
	ws := li.spec.WorkingSetSize()
	windows := []int{ws, 2 * ws, 4 * ws, 0}
	profilers := make([]*profile.Profiler, len(windows))
	_ = r.t.do("profile.stream", "li", func() error {
		fan := make(vm.MultiSink, len(windows))
		for i, win := range windows {
			var opts []profile.Option
			if win > 0 {
				opts = append(opts, profile.WithWindow(win))
			}
			profilers[i] = profile.NewProfiler("li", li.input.Name, opts...)
			fan[i] = profilers[i]
		}
		li.kept.replay(fan)
		return nil
	})
	var win []harness.WindowRow
	for i, wsize := range windows {
		p := r.finish("li", profilers[i])
		res := r.analyze("li", p, r.cfg.Threshold, core.MaximalCliques)
		win = append(win, harness.WindowRow{
			Benchmark: "li", Window: wsize, Pairs: p.Pairs.Len(),
			Edges: res.edges, NumSets: res.sets, AvgStatic: res.avgStatic,
		})
		p.Release()
	}
	r.render(w, "Ablation: interleave scan window (this reproduction's optimization)",
		func() string { return harness.RenderAblationWindow(win, false) })
	return nil
}
