package trace

import (
	"math"
	"reflect"
	"testing"
)

// statsOf streams events through a FreqCounter and returns its
// frequency-ordered statistics.
func statsOf(events ...Event) []BranchStat {
	var f FreqCounter
	streamOf(events, &f)
	return f.Stats()
}

func TestStatsAggregation(t *testing.T) {
	stats := statsOf(
		Event{PC: 4, Taken: true},
		Event{PC: 4, Taken: false},
		Event{PC: 4, Taken: true},
		Event{PC: 8, Taken: false},
	)
	if len(stats) != 2 {
		t.Fatalf("stats len = %d", len(stats))
	}
	// Ordered by count descending.
	if stats[0].PC != 4 || stats[0].Count != 3 || stats[0].Taken != 2 {
		t.Fatalf("stats[0] = %+v", stats[0])
	}
	if got := stats[0].TakenRate(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("taken rate %v", got)
	}
	if (BranchStat{}).TakenRate() != 0 {
		t.Fatal("empty TakenRate not 0")
	}
}

// TestStatsTieBreakByPC checks that the filter, fed the statistics of
// two equally frequent branches, keeps the lower PC first, so the
// selection never depends on the order branches were first seen.
func TestStatsTieBreakByPC(t *testing.T) {
	for _, events := range [][]Event{{{PC: 8}, {PC: 4}}, {{PC: 4}, {PC: 8}}} {
		res := FilterByCoverage(statsOf(events...), 0.5)
		if want := map[uint64]struct{}{4: {}}; !reflect.DeepEqual(res.Keep, want) {
			t.Fatalf("stream %+v: kept %v, want only PC 4", events, res.Keep)
		}
	}
}

func TestFilterByCoverageKeepsHotBranches(t *testing.T) {
	var events []Event
	// PC 4: 90 executions, PC 8: 9, PC 12: 1.
	for i := 0; i < 90; i++ {
		events = append(events, Event{PC: 4, ICount: uint64(i)})
	}
	for i := 0; i < 9; i++ {
		events = append(events, Event{PC: 8})
	}
	events = append(events, Event{PC: 12})
	stats := statsOf(events...)

	res := FilterByCoverage(stats, 0.9)
	if res.StaticKept != 1 || res.DynamicKept != 90 {
		t.Fatalf("kept static=%d dynamic=%d, want 1/90", res.StaticKept, res.DynamicKept)
	}
	if res.Coverage() != 0.9 {
		t.Fatalf("coverage %v", res.Coverage())
	}
	if res.StaticTotal != 3 || res.DynamicTotal != 100 {
		t.Fatalf("totals wrong: %+v", res)
	}

	res = FilterByCoverage(stats, 0.95)
	if res.StaticKept != 2 || res.DynamicKept != 99 {
		t.Fatalf("kept static=%d dynamic=%d, want 2/99", res.StaticKept, res.DynamicKept)
	}
}

func TestFilterByCoverageFull(t *testing.T) {
	res := FilterByCoverage(statsOf(Event{PC: 4}, Event{PC: 8}), 1.0)
	if res.StaticKept != 2 || res.Coverage() != 1.0 {
		t.Fatalf("full coverage filter dropped branches: %+v", res)
	}
}

func TestFilterPreservesOrder(t *testing.T) {
	events := []Event{
		{PC: 4, ICount: 1},
		{PC: 8, ICount: 2},
		{PC: 4, ICount: 3},
	}
	res := FilterByCoverage(statsOf(events...), 1.0)
	var kept collectSink
	streamOf(events, NewFilterSink(res.Keep, &kept))
	if len(kept.events) != 3 {
		t.Fatalf("full-coverage filter kept %d of 3 events", len(kept.events))
	}
	for i := 1; i < len(kept.events); i++ {
		if kept.events[i].ICount <= kept.events[i-1].ICount {
			t.Fatal("filtered events out of order")
		}
	}
}

func TestCoverageEmptyTrace(t *testing.T) {
	res := FilterByCoverage(statsOf(), 0.5)
	if res.Coverage() != 0 {
		t.Fatal("empty trace coverage not 0")
	}
}

type collectSink struct{ events []Event }

func (c *collectSink) Branch(pc uint64, taken bool, icount uint64) {
	c.events = append(c.events, Event{PC: pc, Taken: taken, ICount: icount})
}
