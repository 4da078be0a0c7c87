package harness

import (
	"fmt"
	"io"

	"repro/internal/progcheck"
	"repro/internal/staticws"
	"repro/internal/vm"
	"repro/internal/workload"
)

// StaticBenchmarks is the row set of the static-vs-profiled
// comparison: the original SPECint95 six the repo's evaluation grew
// from.
var StaticBenchmarks = []string{"compress", "gcc", "ijpeg", "li", "m88ksim", "perl"}

// StaticRow is one benchmark's profile-free allocation comparison: the
// conventional PAg baseline, allocation driven by the dynamic profile,
// allocation driven by the compile-time estimate (package staticws),
// and the interference-free reference — all simulated over the same
// branch stream.
type StaticRow struct {
	Benchmark string
	// Conventional is the PC-indexed PAg baseline's misprediction rate.
	Conventional float64
	// Profiled and Static hold the allocation-indexed rates, one per
	// configured BHT size (Config.AllocBHTSizes order), for the
	// profile-driven and estimate-driven allocations respectively.
	Profiled []float64
	Static   []float64
	// InterferenceFree is the per-branch-history reference rate.
	InterferenceFree float64
	// Branches is the number of simulated conditional branches.
	Branches uint64
	// LoopBranches and MaxDepth summarize the estimate's structure.
	LoopBranches int
	MaxDepth     int
}

// ProfiledImprovement and StaticImprovement return the fractional
// misprediction reduction of the largest allocated configuration vs.
// the conventional baseline.
func (r StaticRow) ProfiledImprovement() float64 { return improvement(r.Conventional, r.Profiled) }
func (r StaticRow) StaticImprovement() float64   { return improvement(r.Conventional, r.Static) }

// StaticResult is the complete static-vs-profiled comparison.
type StaticResult struct {
	Sizes   []int
	Rows    []StaticRow
	Average StaticRow
}

// StaticComparison runs the profile-free allocation experiment: for
// each benchmark, allocations are built twice — once from the dynamic
// profile and once from the compile-time estimate — and every
// configuration is simulated over the same branch stream.
func (s *Suite) StaticComparison() (*StaticResult, error) {
	res := &StaticResult{Sizes: s.cfg.AllocBHTSizes}
	rows, err := mapOrdered(s, len(StaticBenchmarks), s.byDynamicBranches(StaticBenchmarks), func(i int) (StaticRow, error) {
		a, err := s.Artifacts(StaticBenchmarks[i], workload.InputRef)
		if err != nil {
			return StaticRow{}, err
		}
		s.progressf("static sims %s", StaticBenchmarks[i])
		return s.staticRow(a)
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.Average = averageStaticRow(res.Rows, len(s.cfg.AllocBHTSizes))
	return res, nil
}

// staticRow simulates one benchmark's configurations: conventional,
// profiled allocation and static allocation at each BHT size, and the
// interference-free reference.
func (s *Suite) staticRow(a *Artifacts) (StaticRow, error) {
	row := StaticRow{Benchmark: a.Spec.Name}

	// The compile-time estimate analyzes the same built program the
	// dynamic run executed.
	prog, err := a.Spec.Build(a.Input, s.cfg.Scale)
	if err != nil {
		return row, err
	}
	// With ProgCheck on, the verifier's proven facts prune resolved and
	// dead branches from the compile-time conflict graph before
	// allocation.
	var facts *progcheck.Facts
	if s.cfg.ProgCheck {
		r, err := s.verifyProgram(a.Spec.Name+"/"+a.Input.Name+" (static)", prog)
		if err != nil {
			return row, err
		}
		facts = r.Facts
	}
	span := s.stageSpan(a.Spec.Name, "static-analyze")
	est, err := staticws.Analyze(prog, facts)
	span.End()
	if err != nil {
		return row, fmt.Errorf("harness: static analysis of %s: %w", a.Spec.Name, err)
	}
	row.LoopBranches = est.LoopBranches()
	row.MaxDepth = est.MaxDepth()

	sizes := s.cfg.AllocBHTSizes
	profiled, err := s.allocMaps(a.Profile, sizes, false)
	if err != nil {
		return row, err
	}
	static, err := s.allocMaps(est.Profile, sizes, false)
	if err != nil {
		return row, fmt.Errorf("harness: static estimate: %w", err)
	}
	sims, err := s.simulate(a.Spec.Name, func(k vm.BranchSink) error { return s.replayFull(a, k) },
		s.paperPredictors(append(profiled, static...)))
	if err != nil {
		return row, err
	}
	row.Conventional = sims[0].MispredictRate()
	row.InterferenceFree = sims[1].MispredictRate()
	row.Branches = sims[0].Branches()
	row.Profiled = rates(sims[2 : 2+len(sizes)])
	row.Static = rates(sims[2+len(sizes):])
	return row, nil
}

// averageStaticRow computes the arithmetic mean across rows.
func averageStaticRow(rows []StaticRow, sizes int) StaticRow {
	mean, branches := meanRates(rows, 2+2*sizes, func(r StaticRow) ([]float64, uint64) {
		return append(append([]float64{r.Conventional, r.InterferenceFree}, r.Profiled...), r.Static...), r.Branches
	})
	return StaticRow{
		Benchmark:        "average",
		Conventional:     mean[0],
		Profiled:         mean[2 : 2+sizes],
		Static:           mean[2+sizes:],
		InterferenceFree: mean[1],
		Branches:         branches,
	}
}

// RenderStatic formats the static-vs-profiled comparison.
func RenderStatic(res *StaticResult, markdown bool) string {
	header := []string{"benchmark", "conventional"}
	for _, size := range res.Sizes {
		header = append(header, fmt.Sprintf("profiled-%d", size))
	}
	for _, size := range res.Sizes {
		header = append(header, fmt.Sprintf("static-%d", size))
	}
	header = append(header, "interference-free", "loop branches", "max depth")
	t := newTextTable(header...)
	addRow := func(r StaticRow, structural bool) {
		cells := []string{r.Benchmark, fmt.Sprintf("%.2f%%", 100*r.Conventional)}
		for _, v := range r.Profiled {
			cells = append(cells, fmt.Sprintf("%.2f%%", 100*v))
		}
		for _, v := range r.Static {
			cells = append(cells, fmt.Sprintf("%.2f%%", 100*v))
		}
		cells = append(cells, fmt.Sprintf("%.2f%%", 100*r.InterferenceFree))
		if structural {
			cells = append(cells, fmt.Sprintf("%d", r.LoopBranches), fmt.Sprintf("%d", r.MaxDepth))
		} else {
			cells = append(cells, "", "")
		}
		t.add(cells...)
	}
	for _, r := range res.Rows {
		addRow(r, true)
	}
	addRow(res.Average, false)
	return t.render(markdown)
}

// RunStatic renders the static-vs-profiled comparison section to w.
func RunStatic(s *Suite, w io.Writer, markdown bool) error {
	res, err := s.StaticComparison()
	if err != nil {
		return err
	}
	section(w, "Static: profile-free allocation from the compile-time estimate")
	_, _ = io.WriteString(w, RenderStatic(res, markdown))
	fmt.Fprintf(w, "\naverage improvement over conventional at %d entries: profiled %.1f%%, static %.1f%%\n",
		res.Sizes[len(res.Sizes)-1], 100*res.Average.ProfiledImprovement(), 100*res.Average.StaticImprovement())
	return nil
}
