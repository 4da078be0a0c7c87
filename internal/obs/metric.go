package obs

import "sync/atomic"

// The metric primitives are lock-free and nil-safe: every method on a
// nil receiver is a no-op (or returns zero), so instrumented code can
// hold possibly-nil metric pointers and call them unconditionally. A
// disabled pipeline pays one predictable nil-check branch per
// instrumentation site and allocates nothing — the zero-overhead
// argument of DESIGN.md §12.

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram with atomic bucket
// counters. Bounds are upper bucket edges in ascending order; one
// implicit overflow bucket catches everything above the last bound.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Uint64
	n      atomic.Uint64
}

// DurationBounds are the default histogram bounds for stage durations,
// in nanoseconds: 1µs to 10s, one decade apart.
var DurationBounds = []uint64{
	1_000, 10_000, 100_000, // 1µs 10µs 100µs
	1_000_000, 10_000_000, 100_000_000, // 1ms 10ms 100ms
	1_000_000_000, 10_000_000_000, // 1s 10s
}

func newHistogram(bounds []uint64) *Histogram {
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// HistogramSnapshot is an atomic point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Name   string
	Bounds []uint64 // upper edges; Counts has one extra overflow slot
	Counts []uint64
	Sum    uint64
	Count  uint64
}

func (h *Histogram) snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   name,
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
