package main

import (
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/workload"
)

// job is one unit of rendered output: a whole batch workload, or one
// service request kind. run drives the harness entry point a user
// calls; replay repeats the same layer calls under the tracer. Both
// write the identical bytes, whose SHA-256 is checked against the
// committed digest under key.
type job struct {
	key    string
	req    string // POST /analyze body (service jobs only)
	run    func(s *harness.Suite, w io.Writer) error
	replay func(r *replayer, w io.Writer) error
}

// workloadDef is one benchmark workload. Each job starts from a fresh
// harness.Suite (or replay cache), as a fresh tables process or a
// fresh wsanalyzed job does.
type workloadDef struct {
	name  string
	scale float64
	// classic and graphs list the programs the workload runs; a batch
	// child builds them all before it reports itself ready.
	classic []benchInput
	graphs  []string
	jobs    []job
	service bool
}

type benchInput struct {
	name  string
	input workload.InputSet
}

// serviceScale is the scale of every service request: small jobs, so
// per-job fixed costs show.
const serviceScale = 0.02

var workloads = []*workloadDef{
	{
		name:    "paper",
		scale:   0.1,
		classic: paperPrograms(),
		jobs: []job{{key: "paper",
			run:    func(s *harness.Suite, w io.Writer) error { return harness.RunAll(s, w, false) },
			replay: (*replayer).paper,
		}},
	},
	{
		name:   "graph-zoo",
		scale:  20,
		graphs: workload.GraphNames(),
		jobs: []job{{key: "graph-zoo",
			run:    func(s *harness.Suite, w io.Writer) error { return harness.RunGraphs(s, w, false) },
			replay: func(r *replayer, w io.Writer) error { return r.graphZoo(w, nil) },
		}},
	},
	{
		name:    "ablations",
		scale:   0.25,
		classic: refPrograms(harness.AblationBenchmarks),
		jobs: []job{{key: "ablations",
			run:    func(s *harness.Suite, w io.Writer) error { return harness.RunAblations(s, w, false) },
			replay: (*replayer).ablations,
		}},
	},
	{
		name:    "service",
		scale:   serviceScale,
		service: true,
		jobs: []job{
			tableJob(2), tableJob(3),
			{key: "service/figure3",
				req:    fmt.Sprintf(`{"kind":"figure","figure":3,"scale":%g,"workers":1}`, serviceScale),
				run:    func(s *harness.Suite, w io.Writer) error { return harness.RunFigure(s, w, 3, false) },
				replay: func(r *replayer, w io.Writer) error { return r.figureSection(w, false) },
			},
			{key: "service/graphs-tage",
				req:    fmt.Sprintf(`{"kind":"graphs","predictor":"tage","scale":%g,"workers":1}`, serviceScale),
				run:    func(s *harness.Suite, w io.Writer) error { return harness.RunGraphs(s, w, false, "tage") },
				replay: func(r *replayer, w io.Writer) error { return r.graphZoo(w, []string{"tage"}) },
			},
		},
	},
}

func tableJob(n int) job {
	return job{
		key:    fmt.Sprintf("service/table%d", n),
		req:    fmt.Sprintf(`{"kind":"table","table":%d,"scale":%g,"workers":1}`, n, serviceScale),
		run:    func(s *harness.Suite, w io.Writer) error { return harness.RunTable(s, w, n, false) },
		replay: func(r *replayer, w io.Writer) error { return r.tableSection(w, n) },
	}
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func refPrograms(names []string) []benchInput {
	out := make([]benchInput, len(names))
	for i, n := range names {
		out[i] = benchInput{n, workload.InputRef}
	}
	return out
}

// paperPrograms lists every (benchmark, input) the paper's tables and
// figures run: each benchmark on its reference input, plus the extra
// input sets of the Table 3/4 rows.
func paperPrograms() []benchInput {
	out := refPrograms(workload.Names())
	for _, r := range harness.SizedBenchmarkRows() {
		if r.Input != workload.InputRef {
			out = append(out, benchInput{r.Name, r.Input})
		}
	}
	return out
}

// buildPrograms compiles every program w runs, the set-up a cold
// process pays before any analysis starts.
func buildPrograms(w *workloadDef) error {
	for _, b := range w.classic {
		spec, err := workload.ByName(b.name)
		if err != nil {
			return err
		}
		if _, err := spec.Build(b.input, w.scale); err != nil {
			return fmt.Errorf("building %s/%s: %w", b.name, b.input.Name, err)
		}
	}
	for _, name := range w.graphs {
		spec, err := workload.GraphByName(name)
		if err != nil {
			return err
		}
		if _, err := spec.Build(w.scale); err != nil {
			return fmt.Errorf("building %s: %w", name, err)
		}
	}
	return nil
}
