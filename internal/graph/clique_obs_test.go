package graph

import (
	"testing"

	"repro/internal/obs"
)

// obsGraph builds two planted cliques plus a singleton — 2 maximal
// cliques, deterministic enumeration effort.
func obsGraph() *Graph {
	return FromPairs(8, append(cliquePairs(5, 0, 1, 2, 3), cliquePairs(5, 4, 5, 6)...))
}

// TestCliqueMetricsRecorded checks the enumeration-effort counters for
// a known graph: clique and truncation counts are exact, steps
// positive, and the enumerated result itself is unaffected by
// recording.
func TestCliqueMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.New(reg).Clique()
	res := obsGraph().MaximalCliquesObs(0, false, 1, m)
	if res.Truncated {
		t.Fatal("tiny graph truncated")
	}
	if len(res.Cliques) != 2 {
		t.Fatalf("got %d cliques, want 2", len(res.Cliques))
	}
	if got := reg.Counter("wsd_clique_cliques_total").Value(); got != 2 {
		t.Errorf("cliques counter = %d, want 2", got)
	}
	if got := reg.Counter("wsd_clique_steps_total").Value(); got == 0 {
		t.Error("no enumeration steps recorded")
	}
	if got := reg.Counter("wsd_clique_truncations_total").Value(); got != 0 {
		t.Errorf("spurious truncation recorded (%d)", got)
	}

	// Recording must not change the result: compare against the
	// unobserved enumeration.
	plain := obsGraph().MaximalCliquesObs(0, false, 1, nil)
	if len(plain.Cliques) != len(res.Cliques) {
		t.Error("observed enumeration differs from plain")
	}
}

// TestCliqueMetricsTruncation starves the budget and checks the
// truncation counter fires.
func TestCliqueMetricsTruncation(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.New(reg).Clique()
	res := obsGraph().MaximalCliquesObs(1, false, 1, m)
	if !res.Truncated {
		t.Fatal("budget 1 did not truncate")
	}
	if got := reg.Counter("wsd_clique_truncations_total").Value(); got != 1 {
		t.Errorf("truncations = %d, want 1", got)
	}
	// The recorded step count can never exceed the budget handed in.
	if got := reg.Counter("wsd_clique_steps_total").Value(); got > 1 {
		t.Errorf("steps = %d exceed budget 1", got)
	}
}
