package predict

import (
	"fmt"

	"repro/internal/obs"
)

// Sim drives a Predictor from a branch event stream and accumulates
// accuracy statistics. It implements the vm.BranchSink shape, so it can
// run online during program execution or over a recorded trace; several
// Sims can share one run through vm.MultiSink, which is how the figure
// experiments compare schemes on identical streams.
type Sim struct {
	p           Predictor
	branches    uint64
	mispredicts uint64

	// High-water marks of what has already been flushed to metrics, so
	// FlushMetrics can be called repeatedly without double counting.
	flushedBranches    uint64
	flushedMispredicts uint64
}

// NewSim wraps p for measurement.
func NewSim(p Predictor) *Sim { return &Sim{p: p} }

// Branch consumes one event: one Update call trains the predictor and
// returns the prediction it made, which is then scored. Every
// registered predictor's Update runs under this dispatch, so the whole
// scheme hierarchy is hot-reachable from here.
//
//reprolint:hotpath predictor update path
func (s *Sim) Branch(pc uint64, taken bool, _ uint64) {
	s.branches++
	if s.p.Update(pc, taken) != taken {
		s.mispredicts++
	}
}

// Branches returns the number of conditional branches simulated.
func (s *Sim) Branches() uint64 { return s.branches }

// Mispredicts returns the misprediction count.
func (s *Sim) Mispredicts() uint64 { return s.mispredicts }

// MispredictRate returns mispredictions per branch, the figures'
// metric.
func (s *Sim) MispredictRate() float64 {
	if s.branches == 0 {
		return 0
	}
	return float64(s.mispredicts) / float64(s.branches)
}

// SimResult snapshots a finished simulation.
type SimResult struct {
	Name        string
	Branches    uint64
	Mispredicts uint64
}

// Rate returns the misprediction rate.
func (r SimResult) Rate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches)
}

func (r SimResult) String() string {
	return fmt.Sprintf("%s: %.4f mispredict rate (%d/%d)", r.Name, r.Rate(), r.Mispredicts, r.Branches)
}

// Result snapshots the Sim's current statistics.
func (s *Sim) Result() SimResult {
	return SimResult{
		Name:        s.p.Name(),
		Branches:    s.branches,
		Mispredicts: s.mispredicts,
	}
}

// FlushMetrics records the statistics accumulated since the previous
// flush into m (nil is a no-op but still advances the flush marks), so
// every event reaches the metrics exactly once. The per-event Branch
// path carries no instrumentation; callers flush once per simulated
// interval.
//
//reprolint:hotpath predictor metrics flush
func (s *Sim) FlushMetrics(m *obs.PredictMetrics) {
	m.Record(s.branches-s.flushedBranches, s.mispredicts-s.flushedMispredicts)
	s.flushedBranches = s.branches
	s.flushedMispredicts = s.mispredicts
}
