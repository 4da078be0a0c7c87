package profile

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// checkStream runs stream through a Profiler with metrics attached, the
// per-increment recency reference and, for window 0, the naive
// reference. A zero pc marks a checkpoint: the Profiler extracts a
// profile mid-stream, and checkSlots checks its counters and pair list
// against the references there and at the end. At the end the pair
// counts must also sum to the profiler's pair-increment total, which a
// skipped run adds to in bulk. checkStream returns the events the
// profiler counted as periodic.
func checkStream(t *testing.T, label string, window int, stream []uint64) uint64 {
	t.Helper()
	m := obs.New(obs.NewRegistry()).Profile()
	opts := []Option{WithMetrics(m)}
	if window > 0 {
		opts = append(opts, WithWindow(window))
	}
	p := NewProfiler("period", "ref", opts...)
	ref := newRecencyReference(window)
	var naive *NaiveProfiler
	if window == 0 {
		naive = NewNaiveProfiler("period", "ref")
	}
	for i, pc := range stream {
		if pc == 0 {
			checkSlots(t, label+" checkpoint", p, p.Profile().Pairs, ref, naive)
			continue
		}
		p.Branch(pc, false, uint64(i))
		ref.Branch(pc, false, uint64(i))
		if naive != nil {
			naive.Branch(pc, false, uint64(i))
		}
	}
	got := p.Profile().Pairs
	checkSlots(t, label, p, got, ref, naive)
	var sum uint64
	got.Range(func(_, v uint64) bool {
		sum += v
		return true
	})
	if inc := m.PairIncrements.Value(); sum != inc {
		t.Fatalf("%s: pair counts sum to %d, profiler counted %d increments", label, sum, inc)
	}
	return m.PeriodicEvents.Value()
}

// loop appends reps iterations of body, whose entries are branch
// numbers, to stream as pcs.
func loop(stream []uint64, reps int, body ...int) []uint64 {
	for range reps {
		for _, b := range body {
			stream = append(stream, uint64(b)*4)
		}
	}
	return stream
}

// seq returns the branch numbers from through to-1.
func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for b := from; b < to; b++ {
		out = append(out, b)
	}
	return out
}

// TestPeriodBrokenAtEveryPhase breaks a loop of 17 events over 13
// branches, three of which repeat themselves, at each of its phases in
// three ways: an event of the body dropped, a branch from elsewhere
// inserted, and two neighbours swapped. The run before the break ends
// with each possible remainder of a period, so the recency list is
// replayed over every length from 0 to P−1. A Profile call also lands
// at each phase, once inside a skipped run and once in the third
// period, while the detector is still verifying.
func TestPeriodBrokenAtEveryPhase(t *testing.T) {
	body := []int{1, 2, 2, 3, 4, 5, 5, 5, 6, 7, 8, 9, 10, 11, 12, 13, 13}
	for _, window := range []int{0, 5} {
		for phase := range body {
			swap := append([]int{}, body...)
			next := (phase + 1) % len(swap)
			swap[phase], swap[next] = swap[next], swap[phase]
			profile := append(append(append([]int{}, body[:phase]...), 0), body[phase:]...)
			breaks := map[string][]int{
				"drop":   append(append([]int{}, body[:phase]...), body[phase+1:]...),
				"insert": append(append(append([]int{}, body[:phase]...), 40+phase%3), body[phase:]...),
				"swap":   swap,
			}
			for _, kind := range []string{"drop", "insert", "swap", "profile"} {
				label := fmt.Sprintf("window=%d/phase=%d/%s", window, phase, kind)
				var stream []uint64
				if kind == "profile" {
					stream = loop(nil, 2, body...)
					stream = loop(stream, 1, profile...)
					stream = loop(stream, 3, body...)
					stream = loop(stream, 1, profile...)
				} else {
					stream = loop(nil, 6, body...)
					stream = loop(stream, 1, body[:phase]...)
					stream = loop(stream, 1, breaks[kind]...)
				}
				stream = loop(stream, 5, body...)
				if checkStream(t, label, window, stream) == 0 {
					t.Fatalf("%s: no event was skipped", label)
				}
			}
		}
	}
}

// TestPeriodNested runs loops nested in a loop, with windows that clip
// the inner loops' prefixes and windows that do not. An inner loop's
// head enters it with a different prefix from the one it repeats with,
// so it restages every outer iteration and the outer period is never
// verified; the inner loop that runs four times is verified and skipped
// in its last iteration, and the detector must lose its period exactly
// when the outer body moves on.
func TestPeriodNested(t *testing.T) {
	var stream []uint64
	for outer := range 20 {
		stream = loop(stream, 1, 1)
		stream = loop(stream, 3, 2, 3, 4)
		stream = loop(stream, 1, 5)
		stream = loop(stream, 2, 6, 7)
		if outer%7 == 6 {
			stream = loop(stream, 4, 8, 9, 10, 11)
		}
	}
	for _, window := range []int{0, 2, 4} {
		if checkStream(t, fmt.Sprintf("window=%d", window), window, stream) == 0 {
			t.Fatalf("window=%d: no event was skipped", window)
		}
	}
}

// TestPeriodLongerThanMaxPeriod checks the cap: a loop over exactly
// maxPeriod branches is skipped once verified, and a loop one branch
// longer is never skipped, and both are exact.
func TestPeriodLongerThanMaxPeriod(t *testing.T) {
	for _, n := range []int{maxPeriod, maxPeriod + 1} {
		stream := loop(nil, 5, seq(1, n+1)...)
		// Periods 1 and 2 touch and restage, period 3 verifies.
		want := uint64(2 * n)
		if n > maxPeriod {
			want = 0
		}
		if periodic := checkStream(t, fmt.Sprintf("period=%d", n), 0, stream); periodic != want {
			t.Fatalf("period %d: %d events skipped, want %d", n, periodic, want)
		}
	}
}

// TestPeriodTwoPrefixes runs a loop in which branch 1 runs twice with a
// different prefix each time, so each of its executions restages its
// pending prefix. A detector that verified only the stream's periodicity
// would skip the loop and bump a pending prefix that is not the
// current one; this one never verifies it, and stays exact. A loop in
// which branch 1 runs once follows, and that one is skipped.
func TestPeriodTwoPrefixes(t *testing.T) {
	twice := loop(nil, 30, 1, 2, 3, 1, 4, 5)
	for _, window := range []int{0, 1} {
		label := fmt.Sprintf("window=%d", window)
		if periodic := checkStream(t, label, window, twice); periodic != 0 {
			t.Fatalf("%s: %d events skipped, want 0", label, periodic)
		}
		if checkStream(t, label+"/then once", window, loop(twice, 10, 1, 2, 3, 4, 5)) == 0 {
			t.Fatalf("%s: the loop that runs branch 1 once was not skipped", label)
		}
	}
}

// TestPeriodWindowClip runs a loop of 10 branches under windows that
// clip every prefix, so a skipped event carries its stored clipped
// length, with breaks in the middle of runs.
func TestPeriodWindowClip(t *testing.T) {
	body := seq(1, 11)
	stream := loop(nil, 8, body...)
	stream = loop(stream, 1, 1, 2, 3, 30, 4, 5, 6, 7, 8, 9, 10)
	stream = loop(stream, 8, body...)
	stream = loop(stream, 1, 1, 2, 3, 4, 5, 6, 7, 9, 10)
	stream = loop(stream, 8, body...)
	for _, window := range []int{1, 3, 7} {
		if checkStream(t, fmt.Sprintf("window=%d", window), window, stream) == 0 {
			t.Fatalf("window=%d: no event was skipped", window)
		}
	}
}

// TestPeriodProfileMidRun extracts a profile in the middle of a skipped
// run, feeds more of the loop, and extracts again; Profile must end the
// run, report its events in bulk, and verify the period afresh, since
// it clears the pending prefixes that skipped events add to.
func TestPeriodProfileMidRun(t *testing.T) {
	body := seq(1, 9)
	const p = 8
	stream := loop(nil, 10, body...)
	stream = loop(stream, 1, body[:3]...)
	stream = append(stream, 0)
	stream = loop(stream, 1, body[3:]...)
	stream = loop(stream, 5, body...)
	stream = append(stream, 0)
	stream = loop(stream, 3, body...)
	for _, window := range []int{0, 3} {
		checkStream(t, fmt.Sprintf("window=%d", window), window, stream)
	}

	// Profile while verifying. After the switch from 1 2 2 to 1 2 2 2,
	// no prefix changes, and the detector verifies P = 4 from the
	// second period's 1 on. Profile lands before the verification's
	// last event, a self-repeat with an empty prefix. Had the count
	// carried over it, a run would start, and the next 1 would bump a
	// pending prefix that Profile cleared.
	verifying := loop(nil, 6, 1, 2, 2)
	verifying = loop(verifying, 1, 1, 2, 2, 2)
	verifying = loop(verifying, 1, 1, 2, 2, 0, 2)
	verifying = loop(verifying, 5, 1, 2, 2, 2)
	checkStream(t, "verifying", 0, verifying)

	// Counted in bulk: nothing while the run lasts, all of it at
	// Profile. The first period touches each branch and the second
	// restages every prefix, so the third verifies and the rest skip;
	// after Profile, one period restages and one verifies again.
	m := obs.New(obs.NewRegistry()).Profile()
	prof := NewProfiler("period", "ref", WithMetrics(m))
	for i, pc := range loop(nil, 10, body...) {
		prof.Branch(pc, false, uint64(i))
	}
	if got := m.PeriodicEvents.Value(); got != 0 {
		t.Fatalf("%d periodic events reported inside a run, want 0 until it ends", got)
	}
	prof.Profile()
	if got, want := m.PeriodicEvents.Value(), uint64((10-3)*p); got != want {
		t.Fatalf("first Profile: %d periodic events, want %d", got, want)
	}
	for i, pc := range loop(nil, 5, body...) {
		prof.Branch(pc, false, uint64(i))
	}
	prof.Profile()
	if got, want := m.PeriodicEvents.Value(), uint64((10-3)*p+(5-2)*p); got != want {
		t.Fatalf("second Profile: %d periodic events, want %d", got, want)
	}
}
