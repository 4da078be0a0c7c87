package predict

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
)

func TestCounter2Saturation(t *testing.T) {
	c := WeakTaken
	for i := 0; i < 10; i++ {
		c = c.Update(true)
	}
	if c != StrongTaken {
		t.Fatalf("counter %v after taken streak", c)
	}
	for i := 0; i < 10; i++ {
		c = c.Update(false)
	}
	if c != StrongNotTaken {
		t.Fatalf("counter %v after not-taken streak", c)
	}
}

func TestCounter2Predictions(t *testing.T) {
	if StrongNotTaken.Taken() || WeakNotTaken.Taken() {
		t.Fatal("not-taken states predict taken")
	}
	if !WeakTaken.Taken() || !StrongTaken.Taken() {
		t.Fatal("taken states predict not-taken")
	}
}

func TestCounter2Property(t *testing.T) {
	f := func(start uint8, outcomes []bool) bool {
		c := Counter2(start % 4)
		for _, o := range outcomes {
			c = c.Update(o)
			if c > StrongTaken {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounter2Strings(t *testing.T) {
	names := []string{"SN", "WN", "WT", "ST"}
	for i, w := range names {
		if Counter2(i).String() != w {
			t.Errorf("counter %d name %q", i, Counter2(i).String())
		}
	}
	if Counter2(9).String() != "??" {
		t.Error("invalid counter name")
	}
}

func TestPCModIndexer(t *testing.T) {
	ix := PCModIndexer{Entries: 16}
	if ix.Size() != 16 || ix.Name() != "pc-mod" {
		t.Fatal("metadata wrong")
	}
	if ix.Index(4) != 1 || ix.Index(4*16) != 0 {
		t.Fatal("index math wrong")
	}
}

func TestIdealIndexerAssignsPrivateEntries(t *testing.T) {
	ix := NewIdealIndexer()
	a := ix.Index(4)
	b := ix.Index(8)
	if a == b {
		t.Fatal("distinct branches share ideal entry")
	}
	if ix.Index(4) != a {
		t.Fatal("ideal entry not stable")
	}
	if ix.Size() != 3 { // 2 assigned + 1 headroom
		t.Fatalf("size %d", ix.Size())
	}
	if ix.Name() != "interference-free" {
		t.Fatal("name wrong")
	}
}

func TestAllocIndexer(t *testing.T) {
	m := core.NewAllocationMap(8, []uint64{4}, []int{5}, -1, -1)
	ix := AllocIndexer{Map: m}
	if ix.Index(4) != 5 || ix.Size() != 8 || ix.Name() != "allocated" {
		t.Fatal("alloc indexer wrong")
	}
	if ix.Index(400) != core.ConventionalIndex(400, 8) {
		t.Fatal("fallback wrong")
	}
	m.ReservedTaken, m.ReservedNotTaken = 0, 1
	if ix.Name() != "allocated+class" {
		t.Fatalf("classified name %q", ix.Name())
	}
}

// drive feeds n repetitions of a per-branch direction function.
func drive(p Predictor, pcs []uint64, n int, dir func(pc uint64, i int) bool) (mispredicts, total int) {
	for i := 0; i < n; i++ {
		for _, pc := range pcs {
			want := dir(pc, i)
			if p.Predict(pc) != want {
				mispredicts++
			}
			total++
			p.Update(pc, want)
		}
	}
	return mispredicts, total
}

func TestPAgLearnsPeriodicPattern(t *testing.T) {
	p, err := NewPAg(PCModIndexer{Entries: 16}, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Period-4 pattern T T T N: fully captured by 6-bit local history.
	miss, total := drive(p, []uint64{4}, 400, func(_ uint64, i int) bool { return i%4 != 3 })
	rate := float64(miss) / float64(total)
	if rate > 0.10 {
		t.Fatalf("PAg mispredict rate %.3f on periodic pattern, want < 0.10", rate)
	}
}

// hashBit is a deterministic pseudo-random direction for (pc, i): no
// history-based predictor can learn it, so it models a data-dependent
// branch.
func hashBit(pc uint64, i int) bool {
	x := pc*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x&(1<<20) != 0
}

// event is one (pc, direction) pair of a synthetic stream.
type event struct {
	pc    uint64
	taken bool
}

// interferenceStream interleaves a periodic branch with a data-dependent
// branch that executes a *varying* number of times per round. The
// variable interleaving shifts the periodic branch's own outcome bits to
// unpredictable positions in a shared history register — the history
// pollution the paper's allocation removes. (With strictly regular
// interleaving a long local history can still separate the patterns,
// which is why irregularity matters here as it does in real code.)
func interferenceStream(periodic, random uint64, rounds int) []event {
	var out []event
	for i := 0; i < rounds; i++ {
		out = append(out, event{periodic, i%2 == 0})
		reps := int(uint(hashCode(random, i)) % 3) // 0..2 executions
		for r := 0; r < reps; r++ {
			out = append(out, event{random, hashBit(random+uint64(r*8), i)})
		}
	}
	return out
}

func hashCode(pc uint64, i int) uint64 {
	x := pc*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x >> 40
}

// runStream measures a predictor's misprediction rate restricted to one
// branch of interest.
func runStream(p Predictor, stream []event, focus uint64) float64 {
	miss, total := 0, 0
	for _, e := range stream {
		if p.Predict(e.pc) != e.taken && e.pc == focus {
			miss++
		}
		if e.pc == focus {
			total++
		}
		p.Update(e.pc, e.taken)
	}
	return float64(miss) / float64(total)
}

func TestPAgInterferenceHurtsAndPrivateEntriesHelp(t *testing.T) {
	periodic := uint64(4)
	random := periodic + 4*16 // collides mod 16
	stream := interferenceStream(periodic, random, 6000)

	shared, err := NewPAg(PCModIndexer{Entries: 16}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sharedRate := runStream(shared, stream, periodic)

	private, err := NewPAg(NewIdealIndexer(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	privateRate := runStream(private, stream, periodic)

	// Private entry: the periodic branch is near-perfect.
	if privateRate > 0.02 {
		t.Fatalf("private periodic rate %.3f, want ~0", privateRate)
	}
	// Shared entry: history pollution must cost it dearly.
	if sharedRate < privateRate+0.10 {
		t.Fatalf("interference not visible: shared %.3f vs private %.3f", sharedRate, privateRate)
	}
}

func TestPAgAllocationAvoidsInterference(t *testing.T) {
	// Same colliding pair, but an allocation map separates them.
	m := core.NewAllocationMap(16, []uint64{4, 4 + 4*16}, []int{0, 1}, 0, 0)
	pcs := []uint64{4, 4 + 4*16}
	dir := func(pc uint64, i int) bool {
		if pc == 4 {
			return i%2 == 0
		}
		return i%2 == 1
	}
	alloc, err := NewPAg(AllocIndexer{Map: m}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	miss, total := drive(alloc, pcs, 2000, dir)
	if rate := float64(miss) / float64(total); rate > 0.05 {
		t.Fatalf("allocated rate %.3f, want < 0.05", rate)
	}
}

func TestPAgRejectsBadPHT(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		if _, err := NewPAg(PCModIndexer{Entries: 4}, n); err == nil {
			t.Errorf("PHT size %d accepted", n)
		}
	}
}

func TestPAgMetadata(t *testing.T) {
	p, err := NewPAg(PCModIndexer{Entries: 1024}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.HistoryBits() != 12 {
		t.Fatalf("history bits %d, want 12", p.HistoryBits())
	}
	if p.BHTSize() != 1024 {
		t.Fatalf("BHT size %d", p.BHTSize())
	}
	if !strings.Contains(p.Name(), "PAg") {
		t.Fatalf("name %q", p.Name())
	}
}

func TestPAgGrowsWithIdealIndexer(t *testing.T) {
	p, err := NewPAg(NewIdealIndexer(), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		p.Update(i*4, true)
	}
	if p.BHTSize() < 100 {
		t.Fatalf("BHT did not grow: %d", p.BHTSize())
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b, err := NewBimodal(64)
	if err != nil {
		t.Fatal(err)
	}
	miss, total := drive(b, []uint64{4}, 1000, func(_ uint64, _ int) bool { return true })
	if rate := float64(miss) / float64(total); rate > 0.01 {
		t.Fatalf("bimodal rate %.3f on constant branch", rate)
	}
}

func TestBimodalRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, 3, -4} {
		if _, err := NewBimodal(n); err == nil {
			t.Errorf("size %d accepted", n)
		}
	}
}

func TestGAgLearnsGlobalPattern(t *testing.T) {
	g, err := NewGAg(256)
	if err != nil {
		t.Fatal(err)
	}
	// A single branch with period 3 is a global pattern too.
	miss, total := drive(g, []uint64{4}, 1000, func(_ uint64, i int) bool { return i%3 != 0 })
	if rate := float64(miss) / float64(total); rate > 0.10 {
		t.Fatalf("GAg rate %.3f", rate)
	}
}

func TestGshareLearnsCorrelation(t *testing.T) {
	g, err := NewGshare(1024)
	if err != nil {
		t.Fatal(err)
	}
	// Branch B always follows branch A's direction: global history
	// correlates perfectly.
	missB := 0
	r := rng.New(5)
	totalB := 0
	for i := 0; i < 3000; i++ {
		a := r.Bool(0.5)
		g.Update(4, a)
		if i > 500 { // after warmup
			if g.Predict(8) != a {
				missB++
			}
			totalB++
		}
		g.Update(8, a)
	}
	if rate := float64(missB) / float64(totalB); rate > 0.10 {
		t.Fatalf("gshare missed inter-correlation: %.3f", rate)
	}
}

func TestGAgGshareRejectBadSizes(t *testing.T) {
	if _, err := NewGAg(1); err == nil {
		t.Error("GAg size 1 accepted")
	}
	if _, err := NewGshare(0); err == nil {
		t.Error("gshare size 0 accepted")
	}
}

func TestAlwaysTaken(t *testing.T) {
	var p AlwaysTaken
	if !p.Predict(4) {
		t.Fatal("always-taken predicted not-taken")
	}
	p.Update(4, false) // no-op
	if !p.Predict(4) {
		t.Fatal("always-taken trained")
	}
	if p.Name() != "always-taken" {
		t.Fatal("name wrong")
	}
}

func TestProfileStatic(t *testing.T) {
	p := NewProfileStatic(map[uint64]bool{4: false, 8: true})
	if p.Predict(4) || !p.Predict(8) {
		t.Fatal("profile directions wrong")
	}
	if !p.Predict(400) {
		t.Fatal("unknown branch should default taken")
	}
	p.Update(4, true)
	if p.Predict(4) {
		t.Fatal("static predictor trained")
	}
}

func TestHybridBiasedStatic(t *testing.T) {
	inner, err := NewBimodal(16)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHybridBiasedStatic(map[uint64]bool{4: true}, inner)
	// The biased branch is always static-taken and never trains inner.
	for i := 0; i < 100; i++ {
		if !h.Predict(4) {
			t.Fatal("biased branch not static")
		}
		h.Update(4, false) // even contradicting outcomes don't train it
	}
	if !h.Predict(4) {
		t.Fatal("hybrid trained a static branch")
	}
	// Non-biased branches reach the dynamic predictor.
	for i := 0; i < 100; i++ {
		h.Update(8, false)
	}
	if h.Predict(8) {
		t.Fatal("dynamic sub-predictor not trained through hybrid")
	}
	if !strings.Contains(h.Name(), "bimodal") {
		t.Fatalf("name %q", h.Name())
	}
}

func TestSimAccounting(t *testing.T) {
	s := NewSim(AlwaysTaken{})
	s.Branch(4, true, 0)
	s.Branch(4, false, 1)
	s.Branch(4, true, 2)
	if s.Branches() != 3 || s.Mispredicts() != 1 {
		t.Fatalf("branches=%d miss=%d", s.Branches(), s.Mispredicts())
	}
	if r := s.MispredictRate(); r < 0.33 || r > 0.34 {
		t.Fatalf("rate %v", r)
	}
	if a := s.Accuracy(); a < 0.66 || a > 0.67 {
		t.Fatalf("accuracy %v", a)
	}
	res := s.Result()
	if res.Branches != 3 || res.Mispredicts != 1 || res.Name != "always-taken" {
		t.Fatalf("result %+v", res)
	}
	if !strings.Contains(res.String(), "always-taken") {
		t.Fatalf("result string %q", res.String())
	}
	if s.Predictor() == nil {
		t.Fatal("predictor accessor nil")
	}
}

func TestSimZeroBranches(t *testing.T) {
	s := NewSim(AlwaysTaken{})
	if s.MispredictRate() != 0 {
		t.Fatal("empty sim rate nonzero")
	}
	if (Result{}).Rate() != 0 {
		t.Fatal("empty result rate nonzero")
	}
}

// Regression: allocation from a real profile beats PC-mod on a crafted
// interference-heavy stream, tying core and predict together.
func TestAllocationEndToEndBeatsConventional(t *testing.T) {
	// 16 periodic/random branch pairs, each pair colliding under mod-16
	// with irregular interleaving: PC-mod wrecks the periodic branches,
	// a 32-entry allocation separates every pair.
	var stream []event
	for i := 0; i < 2000; i++ {
		for pair := 0; pair < 16; pair++ {
			periodic := uint64(pair) * 4
			random := periodic + 4*16
			stream = append(stream, event{periodic, (pair+i)%2 == 0})
			reps := int(uint(hashCode(random, i)) % 3)
			for r := 0; r < reps; r++ {
				stream = append(stream, event{random, hashBit(random+uint64(r*8), i)})
			}
		}
	}

	// Profile the stream, allocate, and compare predictors on a replay.
	prof := profile.NewProfiler("e2e", "ref")
	for i, e := range stream {
		prof.Branch(e.pc, e.taken, uint64(i))
	}
	alloc, err := core.Allocate(prof.Profile(), core.AllocationConfig{TableSize: 32, Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}

	conv, err := NewPAg(PCModIndexer{Entries: 16}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	allocP, err := NewPAg(AllocIndexer{Map: alloc.Map}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	convSim, allocSim := NewSim(conv), NewSim(allocP)
	for i, e := range stream {
		convSim.Branch(e.pc, e.taken, uint64(i))
		allocSim.Branch(e.pc, e.taken, uint64(i))
	}
	convRate := convSim.MispredictRate()
	allocRate := allocSim.MispredictRate()
	// Allocated: periodic branches near-perfect, random ones ~50%.
	if allocRate > 0.35 {
		t.Fatalf("allocated 32-entry rate %.3f too high", allocRate)
	}
	if convRate < allocRate+0.05 {
		t.Fatalf("allocation advantage missing: conventional %.3f vs allocated %.3f", convRate, allocRate)
	}
}
