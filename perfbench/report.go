package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. A job is one unit of user work: a cold batch process
// (one tables-style invocation) or one wsanalyzed request.
var endToEnd = []metricDef{
	{"wall_s", "s"},       // median job wall time
	{"setup_s", "s"},      // median exec-to-ready time
	{"peak_rss_mb", "MB"}, // median peak resident set of the child
	{"jobs_per_s", "1/s"}, // completed jobs per second
	{"job_p90_ms", "ms"},  // 90th-percentile job wall time
}

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []metricDef{
	{"core.size_ms", "ms"}, {"core.colorings", "count"}, {"core.ms_per_coloring", "ms"},
	{"core.allocate_ms", "ms"}, {"core.allocations", "count"},
	{"core.analyze_ms", "ms"},
	{"graph.build_ms", "ms"}, {"graph.edges", "count"},
	{"graph.cliques_ms", "ms"}, {"graph.clique_steps", "count"},
	{"profile.stream_ms", "ms"}, {"profile.finish_ms", "ms"}, {"profile.events", "count"},
	{"profile.pair_increments", "count"}, {"profile.increments_per_event", "incr/event"},
	{"profile.mincr_per_s", "Mincr/s"}, {"profile.table_mb", "MB"}, {"profile.alloc_mb", "MB"},
	{"predict.simulate_ms", "ms"}, {"predict.updates", "count"}, {"predict.mupdates_per_s", "Mupdates/s"},
	{"vm.execute_ms", "ms"}, {"vm.runs", "count"}, {"vm.instructions", "count"}, {"vm.minstr_per_s", "Minstr/s"},
	{"trace.filter_ms", "ms"}, {"trace.analyzed_frac", "fraction"},
	{"workload.build_ms", "ms"}, {"harness.render_ms", "ms"},
	{"wsanalyzed.submit_p90_ms", "ms"}, {"wsanalyzed.queue_wait_p50_ms", "ms"},
	{"wsanalyzed.polls_per_job", "polls/job"}, {"wsanalyzed.result_kb", "kB"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.cpu_s", "s"},
	{"traced.coverage_frac", "fraction"}, {"traced.gap_frac", "fraction"},
}

// raw are the unscaled job time and the calibration time behind the
// scaling of the end-to-end times (see calibrate.go); recorded, never
// gated.
var raw = []metricDef{{"raw.wall_s", "s"}, {"raw.calibration_s", "s"}}

// metric is one reported value with its unit and, where it reduces a
// sample set, the samples.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// envInfo records what a run was measured on.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// runRecord is one benchmark run: one workload, traced or not.
type runRecord struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Seed       uint64            `json:"seed"`
	Scale      float64           `json:"scale"`
	Seconds    int               `json:"seconds"`
	Iterations int               `json:"iterations"`
	Env        envInfo           `json:"env"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Errors     []string          `json:"errors,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

func (r *runRecord) set(name string, v float64, samples []float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name), Samples: samples}
}

func (r *runRecord) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer, raw} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

func currentEnv() envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			e.Commit += "-dirty"
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printRecord writes a run as a human-readable table.
func printRecord(w io.Writer, r *runRecord) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed %d, scale %g, %d s, %d iterations; %d attempted, %d failed\n",
		r.Workload, mode, r.Seed, r.Scale, r.Seconds, r.Iterations, r.Attempted, r.Failed)
	fmt.Fprintf(w, "   nproc %d, GOMAXPROCS %d, %s, %s, commit %s\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.CPU, r.Env.GoVersion, r.Env.Commit)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("   %-30s %14.4f %s", n, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			s := summarize(m.Samples)
			line += fmt.Sprintf("   (median of %d; q1 %.4f, q3 %.4f)", s.N, s.Q1, s.Q3)
		}
		fmt.Fprintln(w, line)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
}

// resultLine is the one-line JSON result: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func resultLine(r *runRecord) ([]byte, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		ms[d.name] = value{m.Value, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// appendRecords appends runs to a JSON-lines report file.
func appendRecords(path string, recs []*runRecord) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func readRecords(path string) ([]*runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*runRecord
	dec := json.NewDecoder(f)
	for dec.More() {
		var r runRecord
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, &r)
	}
	return recs, nil
}
