package trace

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func makeTrace(events ...Event) *Trace {
	return &Trace{Benchmark: "bench", InputSet: "ref", Instructions: 1000, Events: events}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder("b", "in")
	r.Branch(4, true, 10)
	r.Branch(8, false, 20)
	tr := r.Finish(100)
	if tr.Benchmark != "b" || tr.InputSet != "in" || tr.Instructions != 100 {
		t.Fatalf("metadata wrong: %+v", tr)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("events = %d", len(tr.Events))
	}
	if tr.Events[0] != (Event{PC: 4, ICount: 10, Taken: true}) {
		t.Fatalf("event 0 = %+v", tr.Events[0])
	}
}

func TestStatsAggregation(t *testing.T) {
	tr := makeTrace(
		Event{PC: 4, Taken: true},
		Event{PC: 4, Taken: false},
		Event{PC: 4, Taken: true},
		Event{PC: 8, Taken: false},
	)
	stats := tr.Stats()
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

func TestStatsTieBreakByPC(t *testing.T) {
	tr := makeTrace(Event{PC: 8}, Event{PC: 4})
	stats := tr.Stats()
	if stats[0].PC != 4 || stats[1].PC != 8 {
		t.Fatalf("tie-break order wrong: %+v", stats)
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
	tr := makeTrace(events...)

	res := FilterByCoverage(tr.Stats(), 0.9)
	if res.StaticKept != 1 || res.DynamicKept != 90 {
		t.Fatalf("kept static=%d dynamic=%d, want 1/90", res.StaticKept, res.DynamicKept)
	}
	if res.Coverage() != 0.9 {
		t.Fatalf("coverage %v", res.Coverage())
	}
	if res.StaticTotal != 3 || res.DynamicTotal != 100 {
		t.Fatalf("totals wrong: %+v", res)
	}

	res = FilterByCoverage(tr.Stats(), 0.95)
	if res.StaticKept != 2 || res.DynamicKept != 99 {
		t.Fatalf("kept static=%d dynamic=%d, want 2/99", res.StaticKept, res.DynamicKept)
	}
}

func TestFilterByCoverageFull(t *testing.T) {
	tr := makeTrace(Event{PC: 4}, Event{PC: 8})
	res := FilterByCoverage(tr.Stats(), 1.0)
	if res.StaticKept != 2 || res.Coverage() != 1.0 {
		t.Fatalf("full coverage filter dropped branches: %+v", res)
	}
}

func TestFilterPreservesOrder(t *testing.T) {
	tr := makeTrace(
		Event{PC: 4, ICount: 1},
		Event{PC: 8, ICount: 2},
		Event{PC: 4, ICount: 3},
	)
	res := FilterByCoverage(tr.Stats(), 1.0)
	var kept collectSink
	tr.Replay(NewFilterSink(res.Keep, &kept))
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
	tr := makeTrace()
	res := FilterByCoverage(tr.Stats(), 0.5)
	if res.Coverage() != 0 {
		t.Fatal("empty trace coverage not 0")
	}
}

type collectSink struct{ events []Event }

func (c *collectSink) Branch(pc uint64, taken bool, icount uint64) {
	c.events = append(c.events, Event{PC: pc, Taken: taken, ICount: icount})
}

func TestReplay(t *testing.T) {
	tr := makeTrace(Event{PC: 4, Taken: true, ICount: 1}, Event{PC: 8, ICount: 2})
	var c collectSink
	tr.Replay(&c)
	if len(c.events) != 2 || c.events[0] != tr.Events[0] || c.events[1] != tr.Events[1] {
		t.Fatalf("replay mismatch: %+v", c.events)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := makeTrace(
		Event{PC: 4, ICount: 10, Taken: true},
		Event{PC: 400, ICount: 20, Taken: false},
		Event{PC: 8, ICount: 21, Taken: true},
		Event{PC: 8, ICount: 300000, Taken: false},
	)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != tr.Benchmark || got.InputSet != tr.InputSet || got.Instructions != tr.Instructions {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event count %d != %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestEncodeDecodeEmpty(t *testing.T) {
	tr := makeTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 0 {
		t.Fatalf("decoded %d events from empty trace", len(got.Events))
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(pcs []uint16, takens []bool, seed uint8) bool {
		tr := &Trace{Benchmark: "p", InputSet: "q", Instructions: uint64(seed)}
		icount := uint64(0)
		for i, pc := range pcs {
			icount += uint64(pc%97) + 1
			taken := i < len(takens) && takens[i]
			tr.Events = append(tr.Events, Event{PC: uint64(pc) * 4, ICount: icount, Taken: taken})
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("NOPE....")))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("expected ErrBadFormat, got %v", err)
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	tr := makeTrace(Event{PC: 4, ICount: 1}, Event{PC: 8, ICount: 2})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full)-1; cut += 3 {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestReadRejectsEmpty(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("expected ErrBadFormat, got %v", err)
	}
}
