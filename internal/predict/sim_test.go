package predict

import (
	"testing"

	"repro/internal/obs"
)

// TestSimFlushMetricsOnce flushes a Sim mid-stream, at the end, and
// again with nothing new: the metrics must equal the Sim's counters
// exactly once.
func TestSimFlushMetricsOnce(t *testing.T) {
	m := &obs.PredictMetrics{Branches: &obs.Counter{}, Hits: &obs.Counter{}, Mispredicts: &obs.Counter{}}
	s := NewSim(AlwaysTaken{})
	for i := 0; i < 30; i++ {
		s.Branch(0x40, i%3 == 0, uint64(i))
		if i == 11 {
			s.FlushMetrics(m)
		}
	}
	s.FlushMetrics(m)
	s.FlushMetrics(m)
	if s.Branches() != 30 || s.Mispredicts() != 20 {
		t.Fatalf("sim counted %d/%d, want 20/30", s.Mispredicts(), s.Branches())
	}
	if m.Branches.Value() != s.Branches() || m.Mispredicts.Value() != s.Mispredicts() {
		t.Fatalf("metrics %d/%d, sim %d/%d", m.Mispredicts.Value(), m.Branches.Value(), s.Mispredicts(), s.Branches())
	}
	if m.Hits.Value() != s.Branches()-s.Mispredicts() {
		t.Fatalf("hits %d, want %d", m.Hits.Value(), s.Branches()-s.Mispredicts())
	}
}
