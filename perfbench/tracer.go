package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed layer call of the traced run. Times are
// nanoseconds since the tracer started; Parent indexes the span that
// made the call (-1 for the run's root).
type span struct {
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Parent     int    `json:"parent"`
	Workload   string `json:"workload"`
	Benchmark  string `json:"benchmark,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of one traced run in memory. It is used from
// one goroutine: the traced run is serial by construction.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span indexes
	alloc    []metrics.Sample
}

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload,
		t0:       clock.Now(),
		alloc:    []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// start opens a span as a child of the innermost open span.
func (t *tracer) start(name, benchmark string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Workload: t.workload, Benchmark: benchmark,
		AllocBytes: t.heapAllocs(),
		Start:      clock.Now().Sub(t.t0).Nanoseconds(),
	})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.End = clock.Now().Sub(t.t0).Nanoseconds()
	s.AllocBytes = t.heapAllocs() - s.AllocBytes
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(name, benchmark string, f func() error) error {
	id := t.start(name, benchmark)
	err := f()
	t.end(id)
	return err
}

// layers derives, per span name, the self time and self allocation (a
// span's own minus what its children account for), the total time of
// the root spans, and the share of it their direct children cover.
func (t *tracer) layers() (self map[string]time.Duration, alloc map[string]uint64, total time.Duration, coverage float64) {
	self = make(map[string]time.Duration)
	alloc = make(map[string]uint64)
	childTime := make([]int64, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.dur()
			childAlloc[s.Parent] += s.AllocBytes
		}
	}
	var covered int64
	for i, s := range t.spans {
		if s.Parent < 0 {
			total += time.Duration(s.dur())
			covered += childTime[i]
			continue
		}
		self[s.Name] += time.Duration(s.dur() - childTime[i])
		alloc[s.Name] += s.AllocBytes - childAlloc[i]
	}
	if total > 0 {
		coverage = float64(covered) / float64(total)
	}
	return self, alloc, total, coverage
}

// writeTraces saves the spans of traced runs as JSON.
func writeTraces(path string, ts []*tracer) error {
	type run struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	runs := make([]run, len(ts))
	for i, t := range ts {
		runs[i] = run{t.workload, t.spans}
	}
	b, err := json.Marshal(struct {
		Runs []run `json:"runs"`
	}{runs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
