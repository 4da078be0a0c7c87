package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestMapOrderedPreservesOrder also checks that no more than
// min(Workers, n) rows run at once.
func TestMapOrderedPreservesOrder(t *testing.T) {
	const n = 17
	for _, workers := range []int{1, 2, 4, 100} {
		var live, peak atomic.Int32
		got, err := mapOrdered(NewSuite(Config{Workers: workers}), n, nil, func(i int) (int, error) {
			l := live.Add(1)
			for p := peak.Load(); l > p && !peak.CompareAndSwap(p, l); p = peak.Load() {
			}
			time.Sleep(100 * time.Microsecond)
			live.Add(-1)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		if p := int(peak.Load()); p > min(workers, n) {
			t.Fatalf("workers=%d: %d rows ran at once", workers, p)
		}
	}
}

func TestMapOrderedEmpty(t *testing.T) {
	got, err := mapOrdered(NewSuite(Config{Workers: 4}), 0, nil, func(int) (int, error) {
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
	_, err := mapOrdered(NewSuite(Config{Workers: 1}), 10, nil, func(i int) (int, error) {
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
	_, err := mapOrdered(NewSuite(Config{Workers: 4}), 8, nil, func(i int) (int, error) {
		if i == 2 || i == 5 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail-2" {
		t.Fatalf("err = %v, want fail-2", err)
	}
}

// TestMapOrderedDispatchHeaviestFirst checks parallel dispatch: rows
// start heaviest first with ties in index order, the first wave of
// workers takes the heaviest rows, and results come back in index order.
func TestMapOrderedDispatchHeaviestFirst(t *testing.T) {
	weights := []uint64{3, 7, 7, 1, 9, 3, 0, 7}
	weight := func(i int) uint64 { return weights[i] }
	want := []int{4, 1, 2, 7, 0, 5, 3, 6}

	if got := dispatchOrder(len(weights), weight); !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
	if got := dispatchOrder(4, nil); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("nil-weight dispatch order %v, want index order", got)
	}

	// Four workers: each blocks after its first row until all four have
	// one, so the first wave is exactly the four heaviest rows.
	var mu sync.Mutex
	var wave sync.WaitGroup
	wave.Add(4)
	var calls atomic.Int32
	first := make(map[int]bool)
	got, err := mapOrdered(NewSuite(Config{Workers: 4}), len(weights), weight, func(i int) (int, error) {
		if calls.Add(1) <= 4 {
			mu.Lock()
			first[i] = true
			mu.Unlock()
			wave.Done()
			wave.Wait()
		}
		return 10 * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range want[:4] {
		if !first[i] {
			t.Fatalf("first wave %v lacks row %d (weights %v)", first, i, weights)
		}
	}
	for i, v := range got {
		if v != 10*i {
			t.Fatalf("out[%d] = %d, results not in index order", i, v)
		}
	}
}

// TestMapOrderedRecoversPanic panics in one row: in both modes the
// panic becomes that row's error.
func TestMapOrderedRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var calls atomic.Int32
		_, err := mapOrdered(NewSuite(Config{Workers: workers}), 6, nil, func(i int) (int, error) {
			calls.Add(1)
			if i == 2 {
				panic("boom")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "harness: row 2 panicked: boom") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if want := map[int]int32{1: 3, 3: 6}[workers]; calls.Load() != want {
			t.Fatalf("workers=%d: %d rows ran, want %d", workers, calls.Load(), want)
		}
	}
}

// TestConcurrentSuitesMatchSerial runs two default-config Suites'
// RunAll at once, each with its own workers, and requires both to
// match the serial bytes.
func TestConcurrentSuitesMatchSerial(t *testing.T) {
	render := func(cfg Config) (string, error) {
		var b strings.Builder
		err := RunAll(NewSuite(cfg), &b, false)
		return b.String(), err
	}
	serial, err := render(Config{Scale: 0.05, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = render(Config{Scale: 0.05})
		}(i)
	}
	wg.Wait()
	for i := range out {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if out[i] != serial {
			t.Errorf("suite %d differs from serial:\n--- serial ---\n%.2000s\n--- concurrent ---\n%.2000s", i, serial, out[i])
		}
	}
}

// TestFusedArtifactsMatchRecorded checks the streamed artifacts against
// a reference built here from the run's collected events: their own
// statistics select the keep set, and a plain loop over them feeds the
// kept ones to a serial profiler. VM stats, every filter count, the
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
	var events []trace.Event
	stats, err := spec.RunInto(workload.RunConfig{Input: workload.InputRef, Scale: 0.05},
		vm.BranchFunc(func(pc uint64, taken bool, icount uint64) {
			events = append(events, trace.Event{PC: pc, ICount: icount, Taken: taken})
		}))
	if err != nil {
		t.Fatal(err)
	}
	var freq trace.FreqCounter
	for _, e := range events {
		freq.Branch(e.PC, e.Taken, e.ICount)
	}
	filter := trace.FilterByCoverage(freq.Stats(), spec.AnalyzeCoverage)
	prof := profile.NewProfiler("li", workload.InputRef.Name,
		profile.WithWindow(2*spec.WorkingSetSize()))
	var kept uint64
	for _, e := range events {
		if _, ok := filter.Keep[e.PC]; ok {
			prof.Branch(e.PC, e.Taken, e.ICount)
			kept++
		}
	}
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
	if !reflect.DeepEqual(pg.Pairs, pw.Pairs) {
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
// the strictly serial pipeline (one worker) and the parallel one (with the artifact verifiers enabled). Run under -race
// in CI, it also shakes out data races in the worker pool.
func TestParallelFusedOutputByteIdentical(t *testing.T) {
	serial := renderEverything(t, Config{Scale: 0.05, Workers: 1})
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
