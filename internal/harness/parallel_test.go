package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// budgetSuite returns a Suite with the given Workers drawing from a
// private core budget of the given capacity.
func budgetSuite(workers, capacity int) *Suite {
	s := NewSuite(Config{Workers: workers})
	s.cores = &coreBudget{capacity: capacity}
	return s
}

func (b *coreBudget) heldTokens() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.held
}

func TestMapOrderedPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 100} {
		s := budgetSuite(workers, 4)
		got, err := mapOrdered(s, 17, nil, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		if held := s.cores.heldTokens(); held != 0 {
			t.Fatalf("workers=%d: %d tokens still held", workers, held)
		}
	}
}

func TestMapOrderedEmpty(t *testing.T) {
	got, err := mapOrdered(budgetSuite(4, 4), 0, nil, func(int) (int, error) {
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
	_, err := mapOrdered(budgetSuite(1, 4), 10, nil, func(i int) (int, error) {
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
	_, err := mapOrdered(budgetSuite(4, 4), 8, nil, func(i int) (int, error) {
		if i == 2 || i == 5 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail-2" {
		t.Fatalf("err = %v, want fail-2", err)
	}
}

// TestCoreBudgetNeverExceedsCapacity hammers one budget with
// concurrent takes of up to three tokens and no floor: the held count
// never exceeds the capacity, every take is within [0, want], and
// everything comes back.
func TestCoreBudgetNeverExceedsCapacity(t *testing.T) {
	const capacity = 3
	b := &coreBudget{capacity: capacity}
	var wg sync.WaitGroup
	var bad atomic.Value
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				want := 1 + (g+i)%3
				n := b.take(want, 0)
				if held := b.heldTokens(); held > capacity {
					bad.Store(fmt.Sprintf("held %d tokens, capacity %d", held, capacity))
				}
				if n < 0 || n > want {
					bad.Store(fmt.Sprintf("take(%d, 0) = %d", want, n))
				}
				b.give(n)
			}
		}(g)
	}
	wg.Wait()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	if held := b.heldTokens(); held != 0 {
		t.Fatalf("%d tokens still held", held)
	}
	if n := b.take(8, 0); n != capacity {
		t.Fatalf("take(8, 0) on an idle budget = %d, want %d", n, capacity)
	} else {
		b.give(n)
	}
}

// TestMapOrderedDispatchHeaviestFirst checks parallel dispatch: rows
// start heaviest first with ties in index order, the first wave of
// workers takes the heaviest rows, and results come back in index order.
func TestMapOrderedDispatchHeaviestFirst(t *testing.T) {
	weights := []uint64{3, 7, 7, 1, 9, 3, 0, 7}
	weight := func(i int) uint64 { return weights[i] }
	want := []int{4, 1, 2, 7, 0, 5, 3, 6}

	// With the budget's other token taken, Workers 2 gets one worker,
	// whose start order is the dispatch order itself.
	s := budgetSuite(2, 2)
	s.cores.take(1, 1)
	var mu sync.Mutex
	var started []int
	got, err := mapOrdered(s, len(weights), weight, func(i int) (int, error) {
		mu.Lock()
		started = append(started, i)
		mu.Unlock()
		return 10 * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(started, want) {
		t.Fatalf("start order %v, want %v", started, want)
	}
	for i, v := range got {
		if v != 10*i {
			t.Fatalf("out[%d] = %d, results not in index order", i, v)
		}
	}
	s.cores.give(1)

	// Four workers: each blocks after its first row until all four have
	// one, so the first wave is exactly the four heaviest rows.
	s = budgetSuite(4, 4)
	var wave sync.WaitGroup
	wave.Add(4)
	var calls atomic.Int32
	first := make(map[int]bool)
	got, err = mapOrdered(s, len(weights), weight, func(i int) (int, error) {
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
	if held := s.cores.heldTokens(); held != 0 {
		t.Fatalf("%d tokens still held", held)
	}
}

// TestMapOrderedRecoversPanic panics in one row: in both modes the
// panic becomes that row's error, and the worker tokens all return to
// the budget.
func TestMapOrderedRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 3} {
		s := budgetSuite(workers, 3)
		var calls atomic.Int32
		_, err := mapOrdered(s, 6, nil, func(i int) (int, error) {
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
		if held := s.cores.heldTokens(); held != 0 {
			t.Fatalf("workers=%d: %d tokens still held after the panic", workers, held)
		}
	}
}

// TestConcurrentSuitesMatchSerial runs two default-config Suites'
// RunAll at once, sharing the process-wide budget as two wsanalyzed
// jobs do, and requires both to match the serial bytes.
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
	if held := cores.heldTokens(); held != 0 {
		t.Fatalf("%d process-wide tokens still held", held)
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
