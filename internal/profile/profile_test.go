package profile

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestPairKeyUnordered(t *testing.T) {
	if PairKey(3, 7) != PairKey(7, 3) {
		t.Fatal("PairKey not symmetric")
	}
	a, b := UnpackPair(PairKey(7, 3))
	if a != 3 || b != 7 {
		t.Fatalf("unpack = (%d,%d), want (3,7)", a, b)
	}
}

func TestPairKeyNeverZero(t *testing.T) {
	f := func(x, y int16) bool {
		a, b := int32(x)&0x7fff, int32(y)&0x7fff
		if a == b {
			return true // self pairs never occur
		}
		return PairKey(a, b) != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	f := func(x, y int16) bool {
		a, b := int32(x)&0x7fff, int32(y)&0x7fff
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		ga, gb := UnpackPair(PairKey(a, b))
		return ga == lo && gb == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// feed sends a synthetic branch sequence (one instruction per branch) to
// a sink.
func feed(sink interface {
	Branch(pc uint64, taken bool, icount uint64)
}, pcs ...uint64) {
	for i, pc := range pcs {
		sink.Branch(pc, true, uint64(i))
	}
}

// idOf returns the dense id of pc in p, or -1 if pc never executed.
func idOf(p *Profile, pc uint64) int32 { return int32(slices.Index(p.PCs, pc)) }

func TestProfilerPaperExample(t *testing.T) {
	// The paper's Figure 1: A B C A. On A's second execution, B and C
	// have newer time stamps, so pairs (A,B) and (A,C) interleave once.
	p := NewProfiler("fig1", "ref")
	feed(p, 4, 8, 12, 4)
	prof := p.Profile()
	idA, idB, idC := idOf(prof, 4), idOf(prof, 8), idOf(prof, 12)
	got := pairMap(prof.Pairs)
	if got[PairKey(idA, idB)] != 1 {
		t.Fatal("(A,B) interleave not counted")
	}
	if got[PairKey(idA, idC)] != 1 {
		t.Fatal("(A,C) interleave not counted")
	}
	if got[PairKey(idB, idC)] != 0 {
		t.Fatal("(B,C) wrongly counted: B and C executed once each")
	}
	if prof.Pairs.Len() != 2 {
		t.Fatalf("pair count = %d, want 2", prof.Pairs.Len())
	}
}

func TestProfilerLoopPair(t *testing.T) {
	// A and B alternating n times: each re-execution of A interleaves
	// with B and vice versa.
	p := NewProfiler("loop", "ref")
	var pcs []uint64
	for i := 0; i < 10; i++ {
		pcs = append(pcs, 4, 8)
	}
	feed(p, pcs...)
	prof := p.Profile()
	key := PairKey(idOf(prof, 4), idOf(prof, 8))
	// A executes 10 times; executions 2..10 each see B ahead (9), and
	// B's executions 2..10 each see A ahead (9): total 18.
	if got := pairMap(prof.Pairs)[key]; got != 18 {
		t.Fatalf("pair count = %d, want 18", got)
	}
}

func TestProfilerNoSelfPairs(t *testing.T) {
	p := NewProfiler("self", "ref")
	feed(p, 4, 4, 4, 4)
	prof := p.Profile()
	if prof.Pairs.Len() != 0 {
		t.Fatalf("self-execution created %d pairs", prof.Pairs.Len())
	}
	if prof.Exec[0] != 4 {
		t.Fatalf("exec count = %d", prof.Exec[0])
	}
}

func TestProfilerExecAndTakenCounts(t *testing.T) {
	p := NewProfiler("counts", "ref")
	p.Branch(4, true, 0)
	p.Branch(4, false, 1)
	p.Branch(4, true, 2)
	p.Branch(8, false, 3)
	prof := p.Profile()
	idA := idOf(prof, 4)
	if prof.Exec[idA] != 3 || prof.Taken[idA] != 2 {
		t.Fatalf("exec=%d taken=%d", prof.Exec[idA], prof.Taken[idA])
	}
	if r := prof.TakenRate(idA); r < 0.66 || r > 0.67 {
		t.Fatalf("taken rate %v", r)
	}
	if exec := prof.Exec[idOf(prof, 8)]; exec != 1 {
		t.Fatalf("exec(8) = %d", exec)
	}
	if prof.NumBranches() != 2 {
		t.Fatalf("static = %d", prof.NumBranches())
	}
}

// randomTrace builds a random PC sequence over n static branches.
func randomTrace(r *rng.Xoshiro256, statics, length int) []uint64 {
	pcs := make([]uint64, length)
	for i := range pcs {
		pcs[i] = uint64(r.Intn(statics)+1) * 4
	}
	return pcs
}

func TestProfilerMatchesNaive(t *testing.T) {
	// The recency-stack profiler must agree exactly with the paper's
	// literal time-stamp scan on arbitrary traces.
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		statics := 2 + r.Intn(20)
		length := 50 + r.Intn(500)
		pcs := randomTrace(r, statics, length)

		fast := NewProfiler("x", "ref")
		slow := NewNaiveProfiler("x", "ref")
		for i, pc := range pcs {
			taken := i%3 == 0
			fast.Branch(pc, taken, uint64(i))
			slow.Branch(pc, taken, uint64(i))
		}
		pf, pn := fast.Profile(), slow.Profile()

		if pf.Pairs.Len() != pn.Pairs.Len() {
			t.Fatalf("trial %d: pair counts differ: %d vs %d", trial, pf.Pairs.Len(), pn.Pairs.Len())
		}
		mismatch := false
		got := pairMap(pf.Pairs)
		pn.Pairs.Range(func(k, v uint64) bool {
			// Ids are assigned in first-execution order by both.
			if got[k] != v {
				mismatch = true
				return false
			}
			return true
		})
		if mismatch {
			t.Fatalf("trial %d: pair values differ", trial)
		}
		for id := range pf.Exec {
			if pf.Exec[id] != pn.Exec[id] || pf.Taken[id] != pn.Taken[id] {
				t.Fatalf("trial %d: exec/taken differ at %d", trial, id)
			}
		}
	}
}

func TestProfilerWindowLimitsDepth(t *testing.T) {
	// Sequence A X1..X5 A: pair (A,Xi) requires walking 5 deep. With
	// window 2 only the two most recent partners are counted.
	p := NewProfiler("w", "ref", WithWindow(2))
	feed(p, 4, 8, 12, 16, 20, 24, 4)
	prof := p.Profile()
	total := uint64(0)
	prof.Pairs.Range(func(_, v uint64) bool { total += v; return true })
	if total != 2 {
		t.Fatalf("window 2 counted %d pairs, want 2", total)
	}
	// The counted partners are the most recent: 24 and 20.
	if got := pairMap(prof.Pairs); got[PairKey(idOf(prof, 4), idOf(prof, 24))] != 1 ||
		got[PairKey(idOf(prof, 4), idOf(prof, 20))] != 1 {
		t.Fatal("window kept the wrong partners")
	}
	if p.window != 2 {
		t.Fatalf("window = %d", p.window)
	}
}

func TestProfilerUnboundedEqualsBigWindow(t *testing.T) {
	r := rng.New(7)
	pcs := randomTrace(r, 10, 300)
	unbounded := NewProfiler("x", "ref")
	windowed := NewProfiler("x", "ref", WithWindow(1000))
	for i, pc := range pcs {
		unbounded.Branch(pc, false, uint64(i))
		windowed.Branch(pc, false, uint64(i))
	}
	pu, pw := unbounded.Profile(), windowed.Profile()
	if pu.Pairs.Len() != pw.Pairs.Len() {
		t.Fatal("big window changed results")
	}
	equal := true
	windowedCounts := pairMap(pw.Pairs)
	pu.Pairs.Range(func(k, v uint64) bool {
		if windowedCounts[k] != v {
			equal = false
			return false
		}
		return true
	})
	if !equal {
		t.Fatal("big window changed pair counts")
	}
}

func TestBuildGraphThreshold(t *testing.T) {
	prof := memoProfile()
	g := prof.BuildGraph(1)
	if g.NumEdges() < 2 {
		t.Fatalf("low threshold edges = %d", g.NumEdges())
	}
	g = prof.BuildGraph(10)
	if g.NumEdges() != 1 {
		t.Fatalf("threshold 10 edges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(idOf(prof, 4), idOf(prof, 8)) {
		t.Fatal("surviving edge is wrong")
	}
}

// memoProfile returns a profile in which (4,8) interleave many times and
// (4,12) once: one edge above threshold 10 and one below.
func memoProfile() *Profile {
	p := NewProfiler("g", "ref")
	var pcs []uint64
	for i := 0; i < 10; i++ {
		pcs = append(pcs, 4, 8)
	}
	feed(p, append(pcs, 12, 4)...)
	return p.Profile()
}

func TestBuildGraphMemoized(t *testing.T) {
	prof := memoProfile()
	g1 := prof.BuildGraph(1)
	if again := prof.BuildGraph(1); again != g1 {
		t.Fatal("second BuildGraph(1) rebuilt the graph")
	}
	g10 := prof.BuildGraph(10)
	if g10 == g1 {
		t.Fatal("BuildGraph(10) returned the threshold-1 graph")
	}
	if g1.NumEdges() == g10.NumEdges() {
		t.Fatalf("thresholds 1 and 10 both have %d edges", g1.NumEdges())
	}
	if prof.BuildGraph(1) != g1 || prof.BuildGraph(10) != g10 {
		t.Fatal("memo lost a threshold")
	}
	prof.Release()
	if prof.graphs != nil {
		t.Fatal("Release kept the memoized graphs")
	}
}

// TestBuildGraphConcurrent checks that concurrent first calls share one
// build; run under -race it also checks the memo's locking.
func TestBuildGraphConcurrent(t *testing.T) {
	prof := memoProfile()
	defer prof.Release()
	const callers = 8
	got := make([]*graph.Graph, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = prof.BuildGraph(1)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Fatalf("caller %d got a different graph", i)
		}
	}
}

func TestMergeProfiles(t *testing.T) {
	// Two runs with overlapping branch populations: merged counts sum,
	// remapped by PC.
	p1 := NewProfiler("m", "a")
	feed(p1, 4, 8, 4, 8)
	p2 := NewProfiler("m", "b")
	feed(p2, 8, 12, 8, 12)

	merged, err := Merge(p1.Profile(), p2.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumBranches() != 3 {
		t.Fatalf("merged statics = %d, want 3", merged.NumBranches())
	}
	id8 := idOf(merged, 8)
	if merged.Exec[id8] != 4 {
		t.Fatalf("merged exec for pc 8 = %d, want 4", merged.Exec[id8])
	}
	if len(merged.InputSets) != 2 {
		t.Fatalf("input sets = %v", merged.InputSets)
	}
	// Pair (4,8) only from run a, pair (8,12) only from run b.
	got := pairMap(merged.Pairs)
	if got[PairKey(idOf(merged, 4), id8)] == 0 {
		t.Fatal("pair from run a lost")
	}
	if got[PairKey(id8, idOf(merged, 12))] == 0 {
		t.Fatal("pair from run b lost")
	}
}

func TestMergeRejectsMixedBenchmarks(t *testing.T) {
	p1 := NewProfiler("x", "a")
	p2 := NewProfiler("y", "a")
	feed(p1, 4)
	feed(p2, 4)
	if _, err := Merge(p1.Profile(), p2.Profile()); err == nil {
		t.Fatal("merge of different benchmarks allowed")
	}
}

func TestMergeRejectsRepeatedInputSet(t *testing.T) {
	p1 := NewProfiler("m", "ref")
	feed(p1, 4, 8, 4, 8)
	p2 := NewProfiler("m", "a")
	feed(p2, 8, 12)
	_, err := Merge(p1.Profile(), p2.Profile(), p1.Profile())
	if err == nil || !strings.Contains(err.Error(), `"ref"`) {
		t.Fatalf("merge with input set ref twice: error %v", err)
	}
	// Profiles without a recorded input set still merge.
	anon := &Profile{Benchmark: "m", PCs: []uint64{4}, Exec: []uint64{1}, Taken: []uint64{0}, Pairs: NewPairList(1, nil)}
	if _, err := Merge(anon, anon); err != nil {
		t.Fatalf("merge of profiles with no input sets: %v", err)
	}
}

func TestMergeRejectsEmpty(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Fatal("empty merge allowed")
	}
}

func TestMergeSingleIsIdentityShaped(t *testing.T) {
	p := NewProfiler("m", "ref")
	feed(p, 4, 8, 4)
	orig := p.Profile()
	merged, err := Merge(orig)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumBranches() != orig.NumBranches() || !slices.Equal(merged.Exec, orig.Exec) {
		t.Fatal("single merge changed totals")
	}
}

func TestSortedPairsOrdering(t *testing.T) {
	p := NewProfiler("s", "ref")
	var pcs []uint64
	for i := 0; i < 5; i++ {
		pcs = append(pcs, 4, 8)
	}
	pcs = append(pcs, 12, 4, 12, 4)
	feed(p, pcs...)
	// Range runs in rows of ascending smaller id, each pair once.
	seen := make(map[uint64]bool)
	row := int32(0)
	p.Profile().Pairs.Range(func(k, _ uint64) bool {
		a, b := UnpackPair(k)
		if a < row || a >= b || seen[k] {
			t.Fatalf("pair (%d,%d) out of row order, unordered or repeated", a, b)
		}
		row, seen[k] = a, true
		return true
	})
	if len(seen) != 2 { // 4 with 8, and 4 with 12
		t.Fatalf("%d distinct pairs, want 2", len(seen))
	}
}
