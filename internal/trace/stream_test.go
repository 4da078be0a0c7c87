package trace

import (
	"reflect"
	"testing"
)

// streamOf feeds every event of tr through sink, as a live run would.
func streamOf(tr *Trace, sink Sink) {
	for _, e := range tr.Events {
		sink.Branch(e.PC, e.Taken, e.ICount)
	}
}

func TestFreqCounterMatchesTraceStats(t *testing.T) {
	tr := makeTrace(
		Event{PC: 4, Taken: true, ICount: 1},
		Event{PC: 8, Taken: false, ICount: 2},
		Event{PC: 4, Taken: false, ICount: 3},
		Event{PC: 12, Taken: true, ICount: 4},
		Event{PC: 4, Taken: true, ICount: 5},
		Event{PC: 8, Taken: true, ICount: 6},
	)
	var f FreqCounter
	streamOf(tr, &f)
	want := []BranchStat{{PC: 4, Count: 3, Taken: 2}, {PC: 8, Count: 2, Taken: 1}, {PC: 12, Count: 1, Taken: 1}}
	if !reflect.DeepEqual(f.Stats(), want) || !reflect.DeepEqual(tr.Stats(), want) {
		t.Fatalf("stats:\nstreamed %+v\nrecorded %+v\nwant     %+v", f.Stats(), tr.Stats(), want)
	}
	dyn, static := f.Total()
	if dyn != 6 || static != 3 {
		t.Fatalf("Total = %d/%d, want 6/3", dyn, static)
	}
}

func TestFreqCounterTieBreakByPC(t *testing.T) {
	var f FreqCounter
	f.Branch(8, false, 1)
	f.Branch(4, false, 2)
	stats := f.Stats()
	if stats[0].PC != 4 || stats[1].PC != 8 {
		t.Fatalf("tie-break order wrong: %+v", stats)
	}
}

// TestSelectByCoverageMatchesFilter checks that the selection step, the
// filter over recorded statistics and the filter over streamed
// statistics agree on exactly which branches are analyzed and how many
// executions that covers.
func TestSelectByCoverageMatchesFilter(t *testing.T) {
	var events []Event
	for i := 0; i < 90; i++ {
		events = append(events, Event{PC: 4, ICount: uint64(i)})
	}
	for i := 0; i < 9; i++ {
		events = append(events, Event{PC: 8, ICount: uint64(90 + i)})
	}
	events = append(events, Event{PC: 12, ICount: 99})
	tr := makeTrace(events...)
	var freq FreqCounter
	streamOf(tr, &freq)

	for _, coverage := range []float64{0.5, 0.9, 0.95, 1.0} {
		res := FilterByCoverage(tr.Stats(), coverage)
		keep, dynKept := SelectByCoverage(tr.Stats(), coverage)
		if !reflect.DeepEqual(keep, res.Keep) || len(keep) != res.StaticKept || dynKept != res.DynamicKept {
			t.Fatalf("coverage %v: select kept %v (%d dynamic), filter kept %v (%d/%d)",
				coverage, keep, dynKept, res.Keep, res.StaticKept, res.DynamicKept)
		}
		if streamed := FilterByCoverage(freq.Stats(), coverage); !reflect.DeepEqual(streamed, res) {
			t.Fatalf("coverage %v: streamed filter %+v, recorded %+v", coverage, streamed, res)
		}
		var covered uint64
		for _, e := range tr.Events {
			if _, ok := res.Keep[e.PC]; ok {
				covered++
			}
		}
		if covered != res.DynamicKept {
			t.Fatalf("coverage %v: keep set covers %d events, DynamicKept %d", coverage, covered, res.DynamicKept)
		}
	}
}

// TestFilterSinkMatchesFilteredReplay checks the filter sink passes the
// exact event subsequence of the keep set's branches, in order.
func TestFilterSinkMatchesFilteredReplay(t *testing.T) {
	tr := makeTrace(
		Event{PC: 4, Taken: true, ICount: 1},
		Event{PC: 8, Taken: false, ICount: 2},
		Event{PC: 4, Taken: false, ICount: 3},
		Event{PC: 12, Taken: true, ICount: 4},
		Event{PC: 4, Taken: true, ICount: 5},
	)
	res := FilterByCoverage(tr.Stats(), 0.6) // keeps PC 4 only (3 of 5 dynamic)

	var want []Event
	for _, e := range tr.Events {
		if _, ok := res.Keep[e.PC]; ok {
			want = append(want, e)
		}
	}
	if len(want) != 3 {
		t.Fatalf("keep set %v selects %d events, want 3", res.Keep, len(want))
	}
	var got collectSink
	streamOf(tr, NewFilterSink(res.Keep, &got))
	if !reflect.DeepEqual(want, got.events) {
		t.Fatalf("filtered stream differs:\nwant %+v\ngot  %+v", want, got.events)
	}
}

func TestRecorderReserve(t *testing.T) {
	r := NewRecorder("b", "in")
	r.Reserve(100)
	r.Branch(4, true, 1)
	tr0 := r.Finish(10)
	if cap(tr0.Events) < 100 {
		t.Fatalf("cap = %d after Reserve(100)", cap(tr0.Events))
	}

	// Reserve below current capacity must not shrink or reallocate.
	r2 := NewRecorder("b", "in")
	r2.Reserve(50)
	for i := 0; i < 40; i++ {
		r2.Branch(4, false, uint64(i))
	}
	before := cap(r2.trace.Events)
	r2.Reserve(10)
	if cap(r2.trace.Events) != before {
		t.Fatalf("Reserve(10) changed cap %d -> %d", before, cap(r2.trace.Events))
	}
	if len(r2.trace.Events) != 40 {
		t.Fatalf("Reserve dropped events: len = %d", len(r2.trace.Events))
	}
}

func TestRingTail(t *testing.T) {
	r := NewRing(3)
	if got := r.Tail(); len(got) != 0 {
		t.Fatalf("empty ring tail = %+v", got)
	}
	r.Branch(4, true, 1)
	r.Branch(8, false, 2)
	want := []Event{{PC: 4, ICount: 1, Taken: true}, {PC: 8, ICount: 2}}
	if got := r.Tail(); !reflect.DeepEqual(got, want) {
		t.Fatalf("partial tail = %+v, want %+v", got, want)
	}

	r.Branch(12, true, 3)
	r.Branch(16, false, 4)
	r.Branch(20, true, 5)
	want = []Event{{PC: 12, ICount: 3, Taken: true}, {PC: 16, ICount: 4}, {PC: 20, ICount: 5, Taken: true}}
	if got := r.Tail(); !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapped tail = %+v, want %+v", got, want)
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
}

func TestRingMinimumSize(t *testing.T) {
	r := NewRing(0)
	r.Branch(4, true, 1)
	r.Branch(8, false, 2)
	if got := r.Tail(); len(got) != 1 || got[0].PC != 8 {
		t.Fatalf("size-clamped ring tail = %+v", got)
	}
}
