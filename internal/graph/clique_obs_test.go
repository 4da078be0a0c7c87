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
// serial and parallel mining of a known graph: clique and truncation
// counts are exact, steps and subtasks positive, and the enumerated
// result itself is unaffected by recording.
func TestCliqueMetricsRecorded(t *testing.T) {
	for _, workers := range []int{1, 3} {
		reg := obs.NewRegistry()
		m := obs.New(reg).Clique()
		res := obsGraph().MaximalCliquesObs(0, false, workers, m)
		if res.Truncated {
			t.Fatalf("workers=%d: tiny graph truncated", workers)
		}
		if len(res.Cliques) != 2 {
			t.Fatalf("workers=%d: got %d cliques, want 2", workers, len(res.Cliques))
		}
		if got := reg.Counter("wsd_clique_cliques_total").Value(); got != 2 {
			t.Errorf("workers=%d: cliques counter = %d, want 2", workers, got)
		}
		if got := reg.Counter("wsd_clique_steps_total").Value(); got == 0 {
			t.Errorf("workers=%d: no enumeration steps recorded", workers)
		}
		// Subtasks are a parallel-mode concept: the serial enumerator
		// records none, the parallel one must record at least one.
		subtasks := reg.Counter("wsd_clique_subtasks_total").Value()
		if workers == 1 && subtasks != 0 {
			t.Errorf("workers=1: serial run recorded %d subtasks, want 0", subtasks)
		}
		if workers > 1 && subtasks == 0 {
			t.Errorf("workers=%d: no subtasks recorded", workers)
		}
		if got := reg.Counter("wsd_clique_truncations_total").Value(); got != 0 {
			t.Errorf("workers=%d: spurious truncation recorded (%d)", workers, got)
		}

		// Recording must not change the result: compare against the
		// unobserved enumeration.
		plain := obsGraph().MaximalCliquesObs(0, false, workers, nil)
		if len(plain.Cliques) != len(res.Cliques) {
			t.Errorf("workers=%d: observed enumeration differs from plain", workers)
		}
	}
}

// TestCliqueMetricsTruncation starves the budget and checks the
// truncation counter fires in both modes.
func TestCliqueMetricsTruncation(t *testing.T) {
	for _, workers := range []int{1, 3} {
		reg := obs.NewRegistry()
		m := obs.New(reg).Clique()
		res := obsGraph().MaximalCliquesObs(1, false, workers, m)
		if !res.Truncated {
			t.Fatalf("workers=%d: budget 1 did not truncate", workers)
		}
		if got := reg.Counter("wsd_clique_truncations_total").Value(); got != 1 {
			t.Errorf("workers=%d: truncations = %d, want 1", workers, got)
		}
		// The recorded step count can never exceed the budget handed in.
		if got := reg.Counter("wsd_clique_steps_total").Value(); got > 1 {
			t.Errorf("workers=%d: steps = %d exceed budget 1", workers, got)
		}
	}
}
