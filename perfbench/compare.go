package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// endToEndBound is one end_to_end entry of BENCHMARK.json.
type endToEndBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]endToEndBound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []endToEndBound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// sampleSet collects a metric's values over the untraced runs of a
// workload: one value per run, or a lone run's own samples.
func sampleSet(recs []*runRecord, workload, name string) []float64 {
	var vals, lone []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
			lone = m.Samples
		}
	}
	if len(vals) == 1 && len(lone) > 1 {
		return lone
	}
	return vals
}

// verdict judges b against a for one metric: worse when b's median is
// worse by more than the bound; better when it improves by more than
// the run-to-run spread; unresolved when the spread itself exceeds the
// bound, unless every b value beats every a value.
func verdict(a, b []float64, bd endToEndBound) (string, float64) {
	sa, sb := summarize(a), summarize(b)
	sign := 1.0
	if bd.Better == "higher" {
		sign = -1
	}
	worse := sign * (sb.Median - sa.Median) / sa.Median
	spread := max(sa.spread(), sb.spread())
	dominates := func(x, y []float64) bool { // every x better than every y
		for _, xv := range x {
			for _, yv := range y {
				if sign*(xv-yv) >= 0 {
					return false
				}
			}
		}
		return true
	}
	switch {
	case dominates(b, a):
		return "better", worse
	case spread > bd.Bound:
		return "unresolved", worse
	case worse > bd.Bound:
		return "worse", worse
	case -worse > spread:
		return "better", worse
	}
	return "unchanged", worse
}

// compareFiles prints one row per workload × end-to-end metric.
func compareFiles(w io.Writer, specPath, aPath, bPath string) error {
	bounds, err := readBounds(specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta median\ta q1..q3\tn\tb median\tb q1..q3\tn\tworse by\tbound\tverdict\t")
	for _, wl := range workloads {
		for _, bd := range bounds {
			av, bv := sampleSet(a, wl.name, bd.Name), sampleSet(b, wl.name, bd.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			sa, sb := summarize(av), summarize(bv)
			v, worse := verdict(av, bv, bd)
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g..%.4g\t%d\t%.4g\t%.4g..%.4g\t%d\t%+.1f%%\t%.0f%%\t%s\t\n",
				wl.name, bd.Name, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N,
				100*worse, 100*bd.Bound, v)
		}
	}
	return tw.Flush()
}
