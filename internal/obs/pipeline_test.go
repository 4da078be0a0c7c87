package obs

import (
	"testing"
	"time"
)

// TestNilBundle checks the disabled-pipeline path: New(nil) is nil, all
// accessors return nil, and every recording entry point is inert.
func TestNilBundle(t *testing.T) {
	m := New(nil)
	if m != nil {
		t.Fatal("New(nil) != nil")
	}
	if m.Registry() != nil || m.VM() != nil || m.Profile() != nil || m.Clique() != nil || m.Predict() != nil {
		t.Error("nil Metrics accessor returned a live bundle")
	}
	m.StartSpan("x").End()
	m.VM().RecordRun(1, 2, 3)
	m.Clique().Record(2, 3, true)
	m.Predict().Record(10, 2)
	done := m.Profile().StartMerge()
	done(5) // must be callable
}

func counterVal(r *Registry, name string) uint64 { return r.Counter(name).Value() }

func TestVMMetricsRecordRun(t *testing.T) {
	r := NewRegistry()
	m := New(r)
	m.VM().RecordRun(100, 20, 12)
	m.VM().RecordRun(50, 10, 3)
	checks := map[string]uint64{
		"wsd_vm_runs_total":         2,
		"wsd_vm_instructions_total": 150,
		"wsd_vm_branches_total":     30,
		"wsd_vm_taken_total":        15,
	}
	for name, want := range checks {
		if got := counterVal(r, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestProfileMetricsStartMerge(t *testing.T) {
	r := NewRegistry(WithClock(NewFakeClock(time.Unix(0, 0), 3*time.Millisecond)))
	m := New(r)
	done := m.Profile().StartMerge()
	done(42)
	if got := counterVal(r, "wsd_profile_merges_total"); got != 1 {
		t.Errorf("merges = %d, want 1", got)
	}
	if got, want := counterVal(r, "wsd_profile_merge_ns_total"), uint64(3*time.Millisecond); got != want {
		t.Errorf("merge ns = %d, want %d (one clock step)", got, want)
	}
	if got := counterVal(r, "wsd_profile_merged_pairs_total"); got != 42 {
		t.Errorf("merged pairs = %d, want 42", got)
	}
}

func TestCliqueMetricsRecord(t *testing.T) {
	r := NewRegistry()
	m := New(r)
	m.Clique().Record(100, 7, true)
	m.Clique().Record(0, 0, false) // zero/false: nothing recorded
	checks := map[string]uint64{
		"wsd_clique_steps_total":       100,
		"wsd_clique_cliques_total":     7,
		"wsd_clique_truncations_total": 1,
	}
	for name, want := range checks {
		if got := counterVal(r, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestPredictMetricsRecord(t *testing.T) {
	r := NewRegistry()
	m := New(r)
	m.Predict().Record(1000, 150)
	if got := counterVal(r, "wsd_predict_branches_total"); got != 1000 {
		t.Errorf("branches = %d", got)
	}
	if got := counterVal(r, "wsd_predict_mispredicts_total"); got != 150 {
		t.Errorf("mispredicts = %d", got)
	}
	if got := counterVal(r, "wsd_predict_hits_total"); got != 850 {
		t.Errorf("hits = %d, want branches-mispredicts", got)
	}
}
