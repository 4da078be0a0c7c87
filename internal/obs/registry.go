// Package obs is the repository's observability layer: lock-cheap
// counters, gauges and histograms with atomic snapshots, a span-style
// stage tracer recording wall-clock and allocation deltas, and
// deterministic text/JSON/Prometheus-exposition encoders.
//
// Two properties shape the design (DESIGN.md §12):
//
//   - Disabled instrumentation is free: every metric method is nil-safe,
//     so uninstrumented runs pay one nil-check branch per site and zero
//     allocations on the hot path.
//
//   - Enabled instrumentation never perturbs results: metrics are a
//     write-only side channel of the deterministic pipeline, and all
//     timing flows through an injected Clock, so analysis artifacts are
//     byte-identical with metrics on or off, and metric dumps themselves
//     are golden-testable under a fake clock.
package obs

import (
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry owns a namespace of metrics. Series are created on first
// use and live for the registry's lifetime; creation takes a mutex,
// updates are atomic. A nil *Registry is a valid "disabled" registry:
// every lookup returns nil and every span is a no-op.
type Registry struct {
	clock     Clock
	memSource func() uint64

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	stages   map[string]*Stage

	spanHist *Histogram
}

// RegistryOption configures a Registry.
type RegistryOption func(*Registry)

// WithClock injects the clock used by spans and timers. Tests pass a
// FakeClock (step 0) so every timing field encodes as zero.
func WithClock(c Clock) RegistryOption { //reprolint:allow testonly golden-timing fixture
	return func(r *Registry) { r.clock = c }
}

// WithMemSource injects the cumulative-heap-allocation reader used for
// span allocation deltas. Tests inject a constant source so the
// alloc_bytes fields are deterministic.
func WithMemSource(f func() uint64) RegistryOption { //reprolint:allow testonly golden-timing fixture
	return func(r *Registry) { r.memSource = f }
}

// heapAllocBytes reads the runtime's cumulative heap allocation via the
// runtime/metrics fast path (no stop-the-world, unlike ReadMemStats).
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		return sample[0].Value.Uint64()
	}
	return 0
}

// NewRegistry returns an empty Registry. The default clock is the
// system clock and the default allocation source is the Go runtime.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{
		clock:     SystemClock(),
		memSource: heapAllocBytes,
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		stages:    make(map[string]*Stage),
	}
	for _, o := range opts {
		o(r)
	}
	r.spanHist = r.Histogram("wsd_stage_duration_ns", DurationBounds)
	return r
}

// Clock returns the registry's clock; on a nil registry it returns the
// system clock, so callers can time things unconditionally.
func (r *Registry) Clock() Clock {
	if r == nil || r.clock == nil {
		return SystemClock()
	}
	return r.clock
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the existing bounds).
// A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Stage aggregates the spans recorded under one stage name: how many
// ran, their summed wall-clock nanoseconds, and their summed heap
// allocation deltas.
type Stage struct {
	Count      Counter
	Nanos      Counter
	AllocBytes Counter
}

func (r *Registry) stage(name string) *Stage {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stages[name]
	if st == nil {
		st = &Stage{}
		r.stages[name] = st
	}
	return st
}

// Span is one in-flight stage timing. End records its wall-clock and
// allocation delta into the stage's aggregates and the registry's
// global stage-duration histogram. A nil Span (from a nil registry) is
// a no-op.
type Span struct {
	r          *Registry
	stage      *Stage
	start      time.Time
	startAlloc uint64
}

// StartSpan begins timing the named stage. Use Name to attach labels:
//
//	defer r.StartSpan(obs.Name("wsd_stage", "stage", "profile", "benchmark", b)).End()
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{
		r:          r,
		stage:      r.stage(name),
		start:      r.clock.Now(),
		startAlloc: r.memSource(),
	}
}

// End finishes the span.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := s.r.clock.Now().Sub(s.start)
	if d < 0 {
		d = 0
	}
	s.stage.Count.Inc()
	s.stage.Nanos.Add(uint64(d))
	if a := s.r.memSource(); a > s.startAlloc {
		s.stage.AllocBytes.Add(a - s.startAlloc)
	}
	s.r.spanHist.Observe(uint64(d))
}

// Name renders a series name with labels in canonical (sorted-by-key)
// order: Name("wsd_stage", "stage", "run", "benchmark", "gcc") yields
// `wsd_stage{benchmark="gcc",stage="run"}`. A fixed label order keeps
// every encoder's output stable regardless of call sites.
func Name(base string, kv ...string) string {
	if len(kv) < 2 {
		return base
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string
	Value uint64
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name  string
	Value int64
}

// StagePoint is one stage aggregate in a snapshot.
type StagePoint struct {
	Name       string
	Count      uint64
	Nanos      uint64
	AllocBytes uint64
}

// Snapshot is an atomic-read, name-sorted copy of every metric in the
// registry — the single source all encoders render from, so text, JSON
// and Prometheus output always agree and are deterministically ordered.
type Snapshot struct {
	Counters   []CounterPoint
	Gauges     []GaugePoint
	Histograms []HistogramSnapshot
	Stages     []StagePoint
}

// Snapshot captures the current metric values. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{name, c.Value()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{name, g.Value()})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	for name, st := range r.stages {
		s.Stages = append(s.Stages, StagePoint{
			Name:       name,
			Count:      st.Count.Value(),
			Nanos:      st.Nanos.Value(),
			AllocBytes: st.AllocBytes.Value(),
		})
	}
	sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].Name < s.Stages[j].Name })
	return s
}
