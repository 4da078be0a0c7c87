package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (regenerate with -update if intended)\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}

// fixtureSnapshot builds a registry with one of everything — plain and
// labeled counters, a gauge, the span histogram, and two labeled stages
// — under a stepping clock so timing fields are nonzero but exact.
func fixtureSnapshot() Snapshot {
	mem := uint64(0)
	r := NewRegistry(
		WithClock(NewFakeClock(time.Unix(0, 0), time.Millisecond)),
		WithMemSource(func() uint64 { return mem }),
	)
	r.Counter("wsd_vm_runs_total").Add(3)
	r.Counter("wsd_profile_events_total").Add(1234)
	r.Gauge("wsd_jobs_running").Add(2)

	sp := r.StartSpan(Name("wsd_stage", "benchmark", "li", "stage", "execute"))
	mem = 2048
	sp.End()
	r.StartSpan(Name("wsd_stage", "benchmark", "li", "stage", "profile")).End()
	return r.Snapshot()
}

func TestWriteTextGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteText(&b, fixtureSnapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.text.golden", b.String())
}

func TestWriteJSONGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, fixtureSnapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json.golden", b.String())
}

func TestWritePromGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, fixtureSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	checkGolden(t, "snapshot.prom.golden", out)

	// Structural invariants of the exposition format, independent of the
	// golden bytes: exactly one TYPE line per family, and cumulative
	// buckets ending in +Inf == _count.
	if got := strings.Count(out, "# TYPE wsd_stage_ns_total "); got != 1 {
		t.Errorf("wsd_stage_ns_total TYPE lines = %d, want 1", got)
	}
	if !strings.Contains(out, `wsd_stage_duration_ns_bucket{le="+Inf"} 2`) {
		t.Error("missing +Inf bucket matching the sample count")
	}
}

// TestEncodersAgree spot-checks that all three encoders render the same
// snapshot values: any counter present in the text dump is present with
// the same value in the prom dump.
func TestEncodersAgree(t *testing.T) {
	snap := fixtureSnapshot()
	var text, prom strings.Builder
	if err := WriteText(&text, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&prom, snap); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(text.String()), "\n") {
		if !strings.HasPrefix(line, "counter ") {
			continue
		}
		if !strings.Contains(prom.String(), strings.TrimPrefix(line, "counter ")) {
			t.Errorf("counter line %q absent from prom output", line)
		}
	}
}
