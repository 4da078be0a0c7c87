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
//
// A Sim may carry a warmup budget (NewSimWarmup): the first warmup
// branches still train the predictor but are accounted separately, so
// reported rates exclude the cold-start transient. The accounting is
// predictor-independent — it lives entirely in the Sim dispatch, not in
// any scheme — so every zoo member's warmed rate means the same thing.
type Sim struct {
	p           Predictor
	branches    uint64
	mispredicts uint64

	// warmup is the branch budget excluded from the measured counters;
	// warmBranches/warmMispredicts accumulate that excluded prefix.
	warmup          uint64
	warmBranches    uint64
	warmMispredicts uint64

	// High-water marks of what has already been flushed to metrics, so
	// FlushMetrics can be called repeatedly without double counting.
	// Only measured (post-warmup) counts flow to metrics, and the marks
	// track the measured counters alone — a flush that lands mid-warmup
	// records zero rather than smearing warmup mispredictions into the
	// measured stream.
	flushedBranches    uint64
	flushedMispredicts uint64
}

// NewSim wraps p for measurement with no warmup exclusion.
func NewSim(p Predictor) *Sim { return &Sim{p: p} }

// NewSimWarmup wraps p for measurement, excluding the first warmup
// branches from the reported counters (they still train p).
func NewSimWarmup(p Predictor, warmup uint64) *Sim {
	return &Sim{p: p, warmup: warmup}
}

// Branch consumes one event: one Update call trains the predictor and
// returns the prediction it made, which is then scored. Every
// registered predictor's Update runs under this dispatch, so the whole
// scheme hierarchy is hot-reachable from here.
//
//reprolint:hotpath predictor update path
func (s *Sim) Branch(pc uint64, taken bool, _ uint64) {
	miss := s.p.Update(pc, taken) != taken
	if s.warmBranches < s.warmup {
		s.warmBranches++
		if miss {
			s.warmMispredicts++
		}
	} else {
		s.branches++
		if miss {
			s.mispredicts++
		}
	}
}

// Predictor returns the wrapped predictor.
func (s *Sim) Predictor() Predictor { return s.p }

// Branches returns the number of measured (post-warmup) conditional
// branches simulated.
func (s *Sim) Branches() uint64 { return s.branches }

// Mispredicts returns the measured misprediction count.
func (s *Sim) Mispredicts() uint64 { return s.mispredicts }

// WarmupBranches returns how many branches the warmup budget consumed
// so far (at most the configured warmup).
func (s *Sim) WarmupBranches() uint64 { return s.warmBranches }

// MispredictRate returns measured mispredictions per measured branch,
// the figures' metric.
func (s *Sim) MispredictRate() float64 {
	if s.branches == 0 {
		return 0
	}
	return float64(s.mispredicts) / float64(s.branches)
}

// Accuracy returns 1 - MispredictRate.
func (s *Sim) Accuracy() float64 { return 1 - s.MispredictRate() }

// SimResult snapshots a finished simulation. Branches and Mispredicts
// are the measured (warmup-excluded) counts; the Warmup fields record
// the excluded prefix so totals remain reconstructible.
type SimResult struct {
	Name              string
	Branches          uint64
	Mispredicts       uint64
	WarmupBranches    uint64
	WarmupMispredicts uint64
}

// Result is the historical name for SimResult.
type Result = SimResult

// Rate returns the measured misprediction rate.
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
		Name:              s.p.Name(),
		Branches:          s.branches,
		Mispredicts:       s.mispredicts,
		WarmupBranches:    s.warmBranches,
		WarmupMispredicts: s.warmMispredicts,
	}
}

// FlushMetrics records the measured statistics accumulated since the
// previous flush into m (nil is a no-op but still advances the flush
// marks). Warmup-excluded events never reach the metrics, for any
// predictor: the marks follow the measured counters only, so a flush
// during warmup records nothing and a later flush picks up exactly the
// post-warmup counts once. The per-event Branch path carries no
// instrumentation; callers flush once per simulated interval.
//
//reprolint:hotpath predictor metrics flush
func (s *Sim) FlushMetrics(m *obs.PredictMetrics) {
	m.Record(s.branches-s.flushedBranches, s.mispredicts-s.flushedMispredicts)
	s.flushedBranches = s.branches
	s.flushedMispredicts = s.mispredicts
}
