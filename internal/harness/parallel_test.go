package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestMapOrderedPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 100} {
		got, err := mapOrdered(workers, 17, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapOrderedEmpty(t *testing.T) {
	got, err := mapOrdered(4, 0, func(int) (int, error) {
		t.Fatal("f called for n=0")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapOrderedSerialAbortsOnError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	_, err := mapOrdered(1, 10, func(i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("serial mode ran %d calls after error at index 2", calls.Load())
	}
}

func TestMapOrderedParallelReturnsLowestIndexError(t *testing.T) {
	_, err := mapOrdered(4, 8, func(i int) (int, error) {
		if i == 2 || i == 5 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail-2" {
		t.Fatalf("err = %v, want fail-2", err)
	}
}

// TestFusedArtifactsMatchRecorded checks the streamed artifacts against
// a reference built here from a recorded trace: the trace's own
// statistics select the keep set, and a plain loop over its events feeds
// the kept ones to a serial profiler. VM stats, every filter count, the
// keep set, the per-branch vectors and the pair counts must all agree.
func TestFusedArtifactsMatchRecorded(t *testing.T) {
	s := NewSuite(Config{Scale: 0.05})
	got, err := s.Artifacts("li", workload.InputRef)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	tr, stats, err := spec.Run(workload.RunConfig{Input: workload.InputRef, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	filter := trace.FilterByCoverage(tr.Stats(), spec.AnalyzeCoverage)
	prof := profile.NewProfiler("li", workload.InputRef.Name,
		profile.WithWindow(2*spec.WorkingSetSize()), profile.WithShards(1))
	var kept uint64
	for _, e := range tr.Events {
		if _, ok := filter.Keep[e.PC]; ok {
			prof.Branch(e.PC, e.Taken, e.ICount)
			kept++
		}
	}
	prof.SetInstructions(stats.Instructions)
	want := prof.Profile()

	if got.VMStats != stats {
		t.Fatalf("VM stats differ: %+v vs reference %+v", got.VMStats, stats)
	}
	if kept != filter.DynamicKept {
		t.Fatalf("reference loop kept %d events, filter counts %d", kept, filter.DynamicKept)
	}
	if !reflect.DeepEqual(got.Filter, filter) {
		t.Fatalf("filters differ: %+v vs reference %+v", got.Filter, filter)
	}

	pg, pw := got.Profile, want
	if !reflect.DeepEqual(pg.PCs, pw.PCs) || !reflect.DeepEqual(pg.Exec, pw.Exec) ||
		!reflect.DeepEqual(pg.Taken, pw.Taken) {
		t.Fatal("per-branch profile vectors differ from the reference")
	}
	if pg.Instructions != pw.Instructions {
		t.Fatalf("instructions %d vs reference %d", pg.Instructions, pw.Instructions)
	}
	if !reflect.DeepEqual(pg.SortedPairs(), pw.SortedPairs()) {
		t.Fatal("interleave pair counts differ from the reference")
	}
}

// renderEverything runs the complete cmd/tables composition — all
// tables, both figures, the ablations and the extended experiments —
// and returns the rendered bytes.
func renderEverything(t *testing.T, cfg Config) string {
	t.Helper()
	s := NewSuite(cfg)
	var b strings.Builder
	if err := RunAll(s, &b, false); err != nil {
		t.Fatal(err)
	}
	if err := RunAblations(s, &b, false); err != nil {
		t.Fatal(err)
	}
	if err := RunExtras(s, &b, false); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestParallelFusedOutputByteIdentical is the harness's headline
// determinism guarantee: the full rendered output — every table,
// figure, ablation and extended experiment — is byte-identical between
// the strictly serial pipeline (one worker, one profile shard) and the
// parallel one (with the artifact verifiers enabled). Run under -race
// in CI, it also shakes out data races in the worker pool.
func TestParallelFusedOutputByteIdentical(t *testing.T) {
	serial := renderEverything(t, Config{Scale: 0.05, Workers: 1, ProfileShards: 1})
	parallel := renderEverything(t, Config{Scale: 0.05, Workers: 4, Check: true})
	if serial != parallel {
		t.Fatalf("output differs between serial and parallel:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	for _, want := range []string{"Table 1", "Table 4", "Figure 3", "Figure 4", "Ablation", "Extended"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("rendered output missing %q section", want)
		}
	}
}
