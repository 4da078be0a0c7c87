package predict

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// contractStream is a seeded stream over a few dozen static branches:
// biased, periodic and coin-flip sites, irregularly interleaved, so
// every predictor both hits and misses.
func contractStream(n int) []event {
	r := rng.New(7)
	out := make([]event, 0, n)
	for i := 0; i < n; i++ {
		site := r.Intn(40)
		pc := uint64(0x100 + 4*site)
		var taken bool
		switch site % 3 {
		case 0:
			taken = r.Bool(0.9)
		case 1:
			taken = i%(site%5+2) != 0
		default:
			taken = r.Bool(0.5)
		}
		out = append(out, event{pc, taken})
	}
	return out
}

// contractAllocMap allocates half the contract stream's sites to
// private entries of a 16-entry table and leaves the rest on the
// PC-modulo fallback.
func contractAllocMap() *core.AllocationMap {
	var pcs []uint64
	var entries []int
	for site := 0; site < 40; site += 2 {
		pcs = append(pcs, uint64(0x100+4*site))
		entries = append(entries, site/2%16)
	}
	return core.NewAllocationMap(16, pcs, entries, -1, -1)
}

// TestUpdateReturnsPrediction is the differential test of the Predictor
// contract: Update returns exactly what Predict would have returned just
// before the call. For every implementation, one twin is driven Predict
// then Update and the other Update alone over the same stream; Update's
// return must equal the first twin's Predict at every step, and zoo
// twins must end with equal Snapshots, so Predict changes no state.
func TestUpdateReturnsPrediction(t *testing.T) {
	stream := contractStream(20000)
	statics := map[uint64]bool{}
	for site := 0; site < 40; site += 3 {
		statics[uint64(0x100+4*site)] = site%2 == 0
	}
	zoo := func(kind string, ix func() Indexer) func() (Predictor, error) {
		return func() (Predictor, error) { return NewZooPredictor(kind, ix(), zooTestConfig) }
	}
	pcMod := func() Indexer { return PCModIndexer{Entries: 16} }
	alloc := func() Indexer { return AllocIndexer{Map: contractAllocMap()} }
	ideal := func() Indexer { return NewIdealIndexer() }
	cases := []struct {
		name string
		mk   func() (Predictor, error)
	}{
		{"bimodal", func() (Predictor, error) { return NewBimodal(64) }},
		{"gag", func() (Predictor, error) { return NewGAg(64) }},
		{"always-taken", func() (Predictor, error) { return AlwaysTaken{}, nil }},
		{"profile-static", func() (Predictor, error) { return NewProfileStatic(statics), nil }},
		{"hybrid-biased-static", func() (Predictor, error) {
			g, err := NewGshare(64)
			return NewHybridBiasedStatic(statics, g), err
		}},
		{"gas", func() (Predictor, error) { return NewGAs(4, 64) }},
		{"agree", func() (Predictor, error) { return NewAgree(64, 16) }},
		{"combining", func() (Predictor, error) {
			b, err := NewBimodal(16)
			if err != nil {
				return nil, err
			}
			p, err := NewPAg(PCModIndexer{Entries: 16}, 64)
			if err != nil {
				return nil, err
			}
			return NewCombining(b, p, 16)
		}},
		{"pag/pc-mod", zoo(KindPAg, pcMod)},
		{"pag/allocated", zoo(KindPAg, alloc)},
		{"pag/interference-free", zoo(KindPAg, ideal)},
		{"gshare/pc-mod", zoo(KindGshare, pcMod)},
		{"gshare/allocated", zoo(KindGshare, alloc)},
		{"tage/pc-mod", zoo(KindTAGE, pcMod)},
		{"tage/allocated", zoo(KindTAGE, alloc)},
		{"perceptron/pc-mod", zoo(KindPerceptron, pcMod)},
		{"perceptron/allocated", zoo(KindPerceptron, alloc)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withPredict, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			updateOnly, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range stream {
				want := withPredict.Predict(e.pc)
				withPredict.Update(e.pc, e.taken)
				if got := updateOnly.Update(e.pc, e.taken); got != want {
					t.Fatalf("step %d pc %#x: Update returned %v, Predict said %v", i, e.pc, got, want)
				}
			}
			if z, ok := withPredict.(ZooPredictor); ok {
				if a, b := z.Snapshot(), updateOnly.(ZooPredictor).Snapshot(); a != b {
					t.Fatalf("snapshots diverge:\nPredict+Update:\n%s\nUpdate only:\n%s", a, b)
				}
			}
		})
	}
}

// BenchmarkZooUpdate measures Sim throughput per zoo member and table
// size over a fixed seeded stream, reported as Mupdates/s.
func BenchmarkZooUpdate(b *testing.B) {
	stream := contractStream(1 << 16)
	for _, kind := range ZooKinds() {
		for _, size := range []int{16, 128, 1024} {
			b.Run(fmt.Sprintf("%s/%d", kind, size), func(b *testing.B) {
				p, err := NewZooPredictor(kind, PCModIndexer{Entries: size}, ZooConfig{TableSize: size})
				if err != nil {
					b.Fatal(err)
				}
				sim := NewSim(p)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e := stream[i&(len(stream)-1)]
					sim.Branch(e.pc, e.taken, 0)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mupdates/s")
			})
		}
	}
}
