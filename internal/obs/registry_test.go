package obs

import (
	"testing"
	"time"
)

func TestRegistryCreateOnFirstUse(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Error("same counter name resolved to different instances")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same gauge name resolved to different instances")
	}
	if r.Histogram("h", DurationBounds) != r.Histogram("h", nil) {
		t.Error("same histogram name resolved to different instances")
	}
}

func TestFakeClock(t *testing.T) {
	start := time.Unix(100, 0)
	c := NewFakeClock(start, time.Second)
	if got := c.Now(); !got.Equal(start) {
		t.Errorf("first Now = %v, want %v", got, start)
	}
	if got := c.Now(); !got.Equal(start.Add(time.Second)) {
		t.Errorf("second Now = %v, want start+1s", got)
	}
	c.Advance(time.Minute)
	if got := c.Now(); !got.Equal(start.Add(2*time.Second + time.Minute)) {
		t.Errorf("Now after Advance = %v", got)
	}

	frozen := NewFakeClock(start, 0)
	if !frozen.Now().Equal(frozen.Now()) {
		t.Error("frozen clock moved")
	}
}

// TestSpanRecordsDeltas drives a span with a stepping clock and a
// scripted memory source, checking the exact wall-clock and allocation
// deltas recorded into the stage aggregates and the global histogram.
func TestSpanRecordsDeltas(t *testing.T) {
	mem := uint64(1000)
	r := NewRegistry(
		WithClock(NewFakeClock(time.Unix(0, 0), 5*time.Millisecond)),
		WithMemSource(func() uint64 { return mem }),
	)
	sp := r.StartSpan(Name("wsd_stage", "stage", "x"))
	mem = 1700 // 700 B allocated inside the span
	sp.End()

	snap := r.Snapshot()
	if len(snap.Stages) != 1 {
		t.Fatalf("got %d stages, want 1", len(snap.Stages))
	}
	st := snap.Stages[0]
	if st.Name != `wsd_stage{stage="x"}` {
		t.Errorf("stage name = %q", st.Name)
	}
	if st.Count != 1 {
		t.Errorf("stage count = %d, want 1", st.Count)
	}
	if want := uint64(5 * time.Millisecond); st.Nanos != want {
		t.Errorf("stage ns = %d, want %d (one clock step)", st.Nanos, want)
	}
	if st.AllocBytes != 700 {
		t.Errorf("stage alloc = %d, want 700", st.AllocBytes)
	}
	// The global duration histogram saw the same sample: 5ms lands in
	// the <=10ms bucket.
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 1 {
		t.Fatalf("span histogram not recorded: %+v", snap.Histograms)
	}
	if sum := snap.Histograms[0].Sum; sum != uint64(5*time.Millisecond) {
		t.Errorf("histogram sum = %d, want 5ms", sum)
	}
}

// TestSpanFrozenClockZeroes is the golden-test enabler: under a frozen
// clock and constant memory source, every timing and allocation field
// is exactly zero.
func TestSpanFrozenClockZeroes(t *testing.T) {
	r := NewRegistry(
		WithClock(NewFakeClock(time.Unix(0, 0), 0)),
		WithMemSource(func() uint64 { return 0 }),
	)
	r.StartSpan("s").End()
	st := r.Snapshot().Stages[0]
	if st.Nanos != 0 || st.AllocBytes != 0 {
		t.Errorf("frozen span recorded ns=%d alloc=%d, want 0/0", st.Nanos, st.AllocBytes)
	}
	if st.Count != 1 {
		t.Errorf("frozen span count = %d, want 1", st.Count)
	}
}

func TestName(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Name("m"), "m"},
		{Name("m", "k", "v"), `m{k="v"}`},
		{Name("m", "z", "1", "a", "2"), `m{a="2",z="1"}`}, // sorted by key
		{Name("m", "dangling"), "m"},                      // odd kv: labels dropped
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("Name: got %q, want %q", c.got, c.want)
		}
	}
}

// TestSnapshotSorted checks the deterministic-ordering contract every
// encoder relies on: snapshots are name-sorted regardless of creation
// or map-iteration order.
func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z", "a", "m"} {
		r.Counter(n).Inc()
		r.Gauge("g_" + n).Add(1)
	}
	snap := r.Snapshot()
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name > snap.Counters[i].Name {
			t.Fatalf("counters not sorted: %v", snap.Counters)
		}
	}
	for i := 1; i < len(snap.Gauges); i++ {
		if snap.Gauges[i-1].Name > snap.Gauges[i].Name {
			t.Fatalf("gauges not sorted: %v", snap.Gauges)
		}
	}
}
