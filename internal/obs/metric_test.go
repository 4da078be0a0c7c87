package obs

import (
	"sync"
	"testing"
)

// TestNilMetricsAreNoOps is the zero-overhead contract: every method on
// a nil metric, span, or registry must be callable and inert, because
// uninstrumented pipeline code calls them unconditionally.
func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil Counter has nonzero value")
	}

	var g *Gauge
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil Gauge has nonzero value")
	}

	var h *Histogram
	h.Observe(42) // must not panic

	var s *Span
	s.End() // must not panic

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", DurationBounds) != nil {
		t.Error("nil Registry returned a live metric")
	}
	if r.StartSpan("x") != nil {
		t.Error("nil Registry returned a live span")
	}
	if r.Clock() == nil {
		t.Error("nil Registry Clock() must fall back to the system clock")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Stages) != 0 {
		t.Error("nil Registry snapshot is not empty")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("Counter = %d, want 42", got)
	}
}

// TestHistogramBuckets checks edge placement: a sample equal to a bound
// lands in that bound's bucket, one above it spills to the next, and
// anything beyond the last bound lands in the overflow slot.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]uint64{10, 100})
	h.Observe(0)   // <=10
	h.Observe(10)  // <=10 (inclusive upper edge)
	h.Observe(11)  // <=100
	h.Observe(100) // <=100
	h.Observe(101) // overflow
	s := h.snapshot("h")
	want := []uint64{2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 0+10+11+100+101 {
		t.Errorf("Sum = %d, want 222", s.Sum)
	}
}

// TestMetricsConcurrent hammers the primitives from many goroutines and
// checks exact totals — the atomics must not lose updates (run under
// -race in CI).
func TestMetricsConcurrent(t *testing.T) {
	const workers, perWorker = 8, 10_000
	var c Counter
	var g Gauge
	h := newHistogram(DurationBounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(2)
				g.Add(int64(w + 1))
				g.Add(-int64(w))
				h.Observe(uint64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 2*workers*perWorker {
		t.Errorf("Counter = %d, want %d", got, 2*workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("Gauge = %d, want %d", got, workers*perWorker)
	}
	if got := h.snapshot("h").Count; got != workers*perWorker {
		t.Errorf("Histogram count = %d, want %d", got, workers*perWorker)
	}
}
