package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
)

// Gates of the traced run.
const (
	minCoverage = 0.95 // share of traced time inside layer spans
	maxGap      = 0.10 // |traced - untraced serial harness| / untraced, beyond the passes' spread
)

// replayJobs runs every job of w through the traced replay, one root
// span per job, and returns the replayer with its counts and the
// output digests.
func replayJobs(w *workloadDef, seed uint64) (*replayer, []string, error) {
	t := newTracer(w.name)
	r := newReplayer(t, w.scale, seed)
	var got []string
	for _, j := range w.jobs {
		r.reset()
		h := sha256.New()
		if err := t.do("run", j.key, func() error { return j.replay(r, h) }); err != nil {
			return r, got, err
		}
		got = append(got, hex.EncodeToString(h.Sum(nil)))
	}
	return r, got, nil
}

// traceRun is the traced run of w. The reference is an untraced serial
// harness run; the traced replay repeats its layer calls under spans.
// Both run in cold child processes, in cycles of reference, traced,
// traced, reference, and each side keeps its fastest pass: a steady
// drift in the host's speed cancels, and a slowdown that hits one pass
// does not count. The service workload first drives wsanalyzed for the
// service-side layer metrics. traceRun returns the kept pass's spans.
func traceRun(ctx context.Context, w *workloadDef, seed uint64, budget time.Duration, bin string, rec *runRecord) *tracer {
	for _, m := range []string{"wsanalyzed.submit_p90_ms", "wsanalyzed.queue_wait_p50_ms",
		"wsanalyzed.polls_per_job", "wsanalyzed.result_kb"} {
		rec.set(m, 0, nil) // batch workloads have no service layer
	}
	if w.service {
		measureService(ctx, w, seed, budget, bin, 0, rec)
	}

	// One cycle keeps a traced paper run near 45 s, well inside the time
	// a run may take; the service's passes take about a second, so it
	// runs two to span more of the host's swings.
	cycles := 1
	if w.service {
		cycles = 2
	}
	var ref, traced *childSample
	var refTimes, tracedTimes []float64
	for i := 0; i < 4*cycles; i++ {
		rec.Attempted++
		isRef := i%4 == 0 || i%4 == 3
		mode := modeTraced
		if isRef {
			mode = modeSerial
		}
		s, err := spawnChild(ctx, w, "-mode", mode, "-seed", strconv.FormatUint(seed, 10))
		if err == nil {
			err = checkSameOutput(w, seed, s.res.Digests, ref, traced)
		}
		if err != nil {
			rec.fail("%s pass: %v", mode, err)
			return nil
		}
		if isRef {
			refTimes = append(refTimes, float64(s.res.RunNanos)/1e9)
			if ref == nil || s.res.RunNanos < ref.res.RunNanos {
				ref = &s
			}
		} else {
			tracedTimes = append(tracedTimes, float64(s.res.Traced.TotalNanos)/1e9)
			if traced == nil || s.res.Traced.TotalNanos < traced.res.Traced.TotalNanos {
				traced = &s
			}
		}
	}
	rec.Iterations = 2 * cycles
	if !w.service {
		rec.set("runtime.alloc_mb", float64(ref.res.TotalAlloc)/1e6, nil)
		rec.set("runtime.gc_cycles", float64(ref.res.NumGC), nil)
		rec.set("runtime.cpu_s", ref.cpu.Seconds(), nil)
	}
	for name, m := range traced.res.Traced.Metrics {
		rec.Metrics[name] = m
	}
	coverage := rec.Metrics["traced.coverage_frac"].Value
	tracedTotal, untraced := slices.Min(tracedTimes), slices.Min(refTimes)
	gap := (tracedTotal - untraced) / untraced
	rec.set("traced.gap_frac", gap, nil)
	if coverage < minCoverage {
		rec.fail("traced.coverage_frac %.4f below %.2f", coverage, minCoverage)
	}
	// A gap the passes' own spread could explain is not resolved as
	// one: the bound widens by the larger side's spread.
	noise := max(passSpread(refTimes), passSpread(tracedTimes))
	if math.Abs(gap) > maxGap+noise {
		rec.fail("traced.gap_frac %+.4f beyond ±%.2f plus the passes' spread %.4f (traced %v s, untraced %v s)",
			gap, maxGap, noise, tracedTimes, refTimes)
	}
	return &tracer{workload: w.name, spans: traced.res.Traced.Spans}
}

// passSpread is the range of a side's pass times over its fastest.
func passSpread(times []float64) float64 {
	lo := slices.Min(times)
	return (slices.Max(times) - lo) / lo
}

// checkSameOutput holds a pass's output to the committed digests on
// the paper's inputs (seed 1), and to the passes before it on any
// other seed: the harness and the replay must agree byte for byte.
func checkSameOutput(w *workloadDef, seed uint64, got []string, before ...*childSample) error {
	if seed == 1 {
		return checkDigests(w, got)
	}
	for _, b := range before {
		if b != nil && !slices.Equal(got, b.res.Digests) {
			return fmt.Errorf("output differs from an earlier pass's on seed %d", seed)
		}
	}
	return nil
}

// setLayerMetrics derives the per-layer metrics from r's spans and
// counts, returning the span coverage of the traced time.
func setLayerMetrics(r *replayer, rec *runRecord) float64 {
	self, alloc, _, coverage := r.t.layers()
	ms := func(layer string) float64 { return float64(self[layer]) / 1e6 }
	perSec := func(n uint64, layer string) float64 { return ratio(float64(n)/1e6, self[layer].Seconds()) }
	c := r.counts
	pairs := c.pairIncrements

	rec.set("core.size_ms", ms("core.size"), nil)
	rec.set("core.colorings", float64(c.colorings), nil)
	rec.set("core.ms_per_coloring", ratio(ms("core.size"), float64(c.colorings)), nil)
	rec.set("core.allocate_ms", ms("core.allocate"), nil)
	rec.set("core.allocations", float64(c.allocations), nil)
	rec.set("core.analyze_ms", ms("core.analyze"), nil)
	rec.set("graph.build_ms", ms("graph.build"), nil)
	rec.set("graph.edges", float64(c.graphEdges), nil)
	rec.set("graph.cliques_ms", ms("graph.cliques"), nil)
	rec.set("graph.clique_steps", float64(r.reg.Counter("wsd_clique_steps_total").Value()), nil)
	rec.set("profile.stream_ms", ms("profile.stream"), nil)
	rec.set("profile.finish_ms", ms("profile.finish"), nil)
	rec.set("profile.events", float64(c.profileEvents), nil)
	rec.set("profile.pair_increments", float64(pairs), nil)
	rec.set("profile.increments_per_event", ratio(float64(pairs), float64(c.profileEvents)), nil)
	rec.set("profile.mincr_per_s", perSec(pairs, "profile.stream"), nil)
	rec.set("profile.table_mb", float64(c.profileTableBytes)/1e6, nil)
	rec.set("profile.alloc_mb", float64(alloc["profile.stream"]+alloc["profile.finish"])/1e6, nil)
	rec.set("predict.simulate_ms", ms("predict.simulate"), nil)
	rec.set("predict.updates", float64(c.simUpdates), nil)
	rec.set("predict.mupdates_per_s", perSec(c.simUpdates, "predict.simulate"), nil)
	rec.set("vm.execute_ms", ms("vm.execute"), nil)
	rec.set("vm.runs", float64(c.vmRuns), nil)
	rec.set("vm.instructions", float64(c.instructions), nil)
	rec.set("vm.minstr_per_s", perSec(c.instructions, "vm.execute"), nil)
	rec.set("trace.filter_ms", ms("trace.filter"), nil)
	rec.set("trace.analyzed_frac", ratio(float64(c.dynKept), float64(c.dynTotal)), nil)
	rec.set("workload.build_ms", ms("workload.build"), nil)
	rec.set("harness.render_ms", ms("harness.render"), nil)
	rec.set("traced.coverage_frac", coverage, nil)
	return coverage
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
