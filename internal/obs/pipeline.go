package obs

// This file defines the pipeline-facing metric bundles: small structs
// of pre-resolved series handles that the vm, profile, graph, predict
// and harness layers hold directly, so the hot paths never touch the
// registry's lookup mutex. Every bundle is nil-safe — a nil *Metrics
// (or any nil sub-bundle) makes every recording call a no-op.

// Metrics bundles the whole pipeline's instrumentation. Construct one
// with New around a Registry; a nil Metrics disables everything.
type Metrics struct {
	reg     *Registry
	vm      *VMMetrics
	profile *ProfileMetrics
	clique  *CliqueMetrics
	predict *PredictMetrics
}

// New resolves the standard pipeline series in r. New(nil) returns nil,
// which is a valid disabled bundle.
func New(r *Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		reg: r,
		vm: &VMMetrics{
			Runs:         r.Counter("wsd_vm_runs_total"),
			Instructions: r.Counter("wsd_vm_instructions_total"),
			Branches:     r.Counter("wsd_vm_branches_total"),
			Taken:        r.Counter("wsd_vm_taken_total"),
		},
		profile: &ProfileMetrics{
			clock:          r.Clock(),
			Events:         r.Counter("wsd_profile_events_total"),
			PairIncrements: r.Counter("wsd_profile_pair_increments_total"),
			Merges:         r.Counter("wsd_profile_merges_total"),
			MergeNanos:     r.Counter("wsd_profile_merge_ns_total"),
			MergedPairs:    r.Counter("wsd_profile_merged_pairs_total"),
		},
		clique: &CliqueMetrics{
			Steps:       r.Counter("wsd_clique_steps_total"),
			Cliques:     r.Counter("wsd_clique_cliques_total"),
			Truncations: r.Counter("wsd_clique_truncations_total"),
		},
		predict: &PredictMetrics{
			Branches:    r.Counter("wsd_predict_branches_total"),
			Hits:        r.Counter("wsd_predict_hits_total"),
			Mispredicts: r.Counter("wsd_predict_mispredicts_total"),
		},
	}
}

// Registry returns the underlying registry (nil when disabled).
func (m *Metrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// VM returns the VM bundle (nil when disabled).
func (m *Metrics) VM() *VMMetrics {
	if m == nil {
		return nil
	}
	return m.vm
}

// Profile returns the profiler bundle (nil when disabled).
func (m *Metrics) Profile() *ProfileMetrics {
	if m == nil {
		return nil
	}
	return m.profile
}

// Clique returns the Bron–Kerbosch bundle (nil when disabled).
func (m *Metrics) Clique() *CliqueMetrics {
	if m == nil {
		return nil
	}
	return m.clique
}

// Predict returns the predictor bundle (nil when disabled).
func (m *Metrics) Predict() *PredictMetrics {
	if m == nil {
		return nil
	}
	return m.predict
}

// StartSpan opens a stage span on the underlying registry (no-op when
// disabled).
func (m *Metrics) StartSpan(name string) *Span {
	return m.Registry().StartSpan(name)
}

// VMMetrics counts interpreter work. The VM records once per completed
// run (from its own Stats), so the fetch–execute loop itself carries no
// instrumentation at all.
type VMMetrics struct {
	Runs         *Counter
	Instructions *Counter
	Branches     *Counter
	Taken        *Counter
}

// RecordRun adds one run's totals.
func (m *VMMetrics) RecordRun(instructions, branches, taken uint64) {
	if m == nil {
		return
	}
	m.Runs.Inc()
	m.Instructions.Add(instructions)
	m.Branches.Add(branches)
	m.Taken.Add(taken)
}

// ProfileMetrics counts profiler events and merge work. Events and
// PairIncrements are bumped on the profiler hot path — they are plain
// atomic adds on pre-resolved counters.
type ProfileMetrics struct {
	clock          Clock
	Events         *Counter
	PairIncrements *Counter
	Merges         *Counter
	MergeNanos     *Counter
	MergedPairs    *Counter
}

func noopMergeDone(int) {}

// StartMerge times one profile extraction; the returned func records the
// elapsed time and the merged pair count. Always returns a callable.
func (m *ProfileMetrics) StartMerge() func(pairs int) {
	if m == nil {
		return noopMergeDone
	}
	clock := m.clock
	if clock == nil {
		clock = SystemClock()
	}
	start := clock.Now()
	return func(pairs int) {
		d := clock.Now().Sub(start)
		if d < 0 {
			d = 0
		}
		m.Merges.Inc()
		m.MergeNanos.Add(uint64(d))
		m.MergedPairs.Add(uint64(pairs))
	}
}

// CliqueMetrics counts Bron–Kerbosch enumeration effort.
type CliqueMetrics struct {
	Steps       *Counter
	Cliques     *Counter
	Truncations *Counter
}

// Record adds one enumeration's totals: recursion steps consumed from
// the budget, cliques reported, and whether the budget truncated the
// enumeration.
func (m *CliqueMetrics) Record(steps int64, cliques int, truncated bool) {
	if m == nil {
		return
	}
	if steps > 0 {
		m.Steps.Add(uint64(steps))
	}
	if cliques > 0 {
		m.Cliques.Add(uint64(cliques))
	}
	if truncated {
		m.Truncations.Inc()
	}
}

// PredictMetrics counts predictor outcomes.
type PredictMetrics struct {
	Branches    *Counter
	Hits        *Counter
	Mispredicts *Counter
}

// Record adds one simulation interval's totals.
func (m *PredictMetrics) Record(branches, mispredicts uint64) {
	if m == nil {
		return
	}
	m.Branches.Add(branches)
	m.Mispredicts.Add(mispredicts)
	m.Hits.Add(branches - mispredicts)
}
