package profile

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// syntheticStream models a scene-structured branch stream: ws branches
// rotate repeatedly, with occasional switches to a different window of
// branches — the access pattern the profiler sees from real workloads.
// With dropOneIn > 0, about one rotation in dropOneIn drops one random
// branch, which changes the prefixes of the branches around the gap;
// with 0 every rotation is exact and almost every prefix repeats.
func syntheticStream(statics, ws, events, dropOneIn int) []uint64 {
	r := rng.New(42)
	// A fixed set of overlapping scene windows, as the workload
	// generator produces; visits pick among them.
	const scenes = 12
	starts := make([]int, scenes)
	for i := range starts {
		starts[i] = i * (statics - ws) / (scenes - 1)
	}
	pcs := make([]uint64, 0, events)
	for len(pcs) < events {
		start := starts[r.Intn(scenes)]
		// One scene visit: rotate the window several times.
		for rot := 0; rot < 10 && len(pcs) < events; rot++ {
			drop := -1
			if dropOneIn > 0 && r.Intn(dropOneIn) == 0 {
				drop = r.Intn(ws)
			}
			for j := 0; j < ws && len(pcs) < events; j++ {
				if j != drop {
					pcs = append(pcs, uint64(start+j)*4)
				}
			}
		}
	}
	return pcs
}

// benchProfiler streams synthetic traces through fresh profilers, each
// run ending in Profile so coalesced prefixes are flushed and counted,
// and reports branch and pair-increment throughput. Mbranches/s moves
// with the stream's pair density; Mincr/s is the per-increment rate;
// coalesced is the fraction of increments whose prefix repeated the
// branch's previous one and so was added as part of a weighted prefix;
// periodic is the fraction of events skipped as repeats of a verified
// period.
// Perturbed rotations (one dropped branch in about one rotation in ten)
// change more prefixes than exact ones, so more of their increments
// reach the counters one add each. Churned rotations drop a branch in
// every rotation, so almost no prefix repeats and the variant measures
// what coalescing and period detection cost a stream without the
// property.
func benchProfiler(b *testing.B, window int) {
	for _, rot := range []struct {
		name      string
		dropOneIn int
	}{{"exact", 0}, {"perturbed", 10}, {"churned", 1}} {
		b.Run("rotation="+rot.name, func(b *testing.B) {
			stream := syntheticStream(2000, 200, 1<<18, rot.dropOneIn)
			var opts []Option
			if window > 0 {
				opts = append(opts, WithWindow(window))
			}
			ref := newRecencyReference(window)
			m := obs.New(obs.NewRegistry()).Profile()
			counted := NewProfiler("bench", "ref", append(opts, WithMetrics(m))...)
			for j, pc := range stream {
				ref.Branch(pc, false, uint64(j))
				counted.Branch(pc, false, uint64(j))
			}
			counted.Profile()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := NewProfiler("bench", "ref", opts...)
				for j, pc := range stream {
					p.Branch(pc, j&1 == 0, uint64(j))
				}
				p.Profile().Release()
			}
			perSec := float64(b.N) / b.Elapsed().Seconds() / 1e6
			b.ReportMetric(float64(len(stream))*perSec, "Mbranches/s")
			b.ReportMetric(float64(ref.total)*perSec, "Mincr/s")
			b.ReportMetric(float64(ref.coalesced)/float64(ref.total), "coalesced")
			b.ReportMetric(float64(m.PeriodicEvents.Value())/float64(len(stream)), "periodic")
		})
	}
}

// BenchmarkProfilerUnbounded measures exact-profiling throughput.
func BenchmarkProfilerUnbounded(b *testing.B) { benchProfiler(b, 0) }

// BenchmarkProfilerWindowed measures the harness's bounded-window
// configuration.
func BenchmarkProfilerWindowed(b *testing.B) { benchProfiler(b, 400) }

// BenchmarkProfileExtraction measures Profile() — one walk over the
// per-branch counters, each holding its pairs with higher partners,
// into the flat pair list — and reports extracted pairs per second.
// With 2000 statics every counter stays cache-resident; gcc's 15,970
// statics spread the counters and list over far more memory, as the
// harness's largest benchmark does.
func BenchmarkProfileExtraction(b *testing.B) {
	for _, statics := range []int{2000, 15970} {
		b.Run(fmt.Sprintf("statics=%d", statics), func(b *testing.B) {
			stream := syntheticStream(statics, 200, 1<<19, 0)
			p := NewProfiler("bench", "ref")
			for j, pc := range stream {
				p.Branch(pc, j&1 == 0, uint64(j))
			}
			pairs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pairs = p.Profile().Pairs.Len()
				if pairs == 0 {
					b.Fatal("empty profile")
				}
			}
			b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
		})
	}
}

// BenchmarkMerge measures cumulative-profile merging.
func BenchmarkMerge(b *testing.B) {
	stream := syntheticStream(2000, 200, 1<<17, 0)
	mk := func(input string) *Profile {
		p := NewProfiler("bench", input)
		for j, pc := range stream {
			p.Branch(pc, j&1 == 0, uint64(j))
		}
		return p.Profile()
	}
	pa, pb := mk("a"), mk("b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(pa, pb); err != nil {
			b.Fatal(err)
		}
	}
}
