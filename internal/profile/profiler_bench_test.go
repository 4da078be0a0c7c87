package profile

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// syntheticStream models a scene-structured branch stream: ws branches
// rotate repeatedly, with occasional switches to a different window of
// branches — the access pattern the profiler sees from real workloads.
func syntheticStream(statics, ws, events int) []uint64 {
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
			for j := 0; j < ws && len(pcs) < events; j++ {
				pcs = append(pcs, uint64(start+j)*4)
			}
		}
	}
	return pcs
}

// benchProfiler streams a synthetic trace through fresh profilers and
// reports both branch and pair-increment throughput. Mbranches/s moves
// with the stream's pair density; Mincr/s is the per-increment rate.
func benchProfiler(b *testing.B, opts ...Option) {
	stream := syntheticStream(2000, 200, 1<<18)
	feedAll := func(p *Profiler) {
		for j, pc := range stream {
			p.Branch(pc, j&1 == 0, uint64(j))
		}
	}
	// One untimed pass counts the increments: the extracted pair counts
	// sum to them.
	ref := NewProfiler("bench", "ref", opts...)
	feedAll(ref)
	prof := ref.Profile()
	var incr uint64
	prof.Pairs.Range(func(_, n uint64) bool {
		incr += n
		return true
	})
	prof.Release()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feedAll(NewProfiler("bench", "ref", opts...))
	}
	perSec := float64(b.N) / b.Elapsed().Seconds() / 1e6
	b.ReportMetric(float64(len(stream))*perSec, "Mbranches/s")
	b.ReportMetric(float64(incr)*perSec, "Mincr/s")
}

// BenchmarkProfilerUnbounded measures exact-profiling throughput.
func BenchmarkProfilerUnbounded(b *testing.B) { benchProfiler(b) }

// BenchmarkProfilerWindowed measures the harness's bounded-window
// configuration.
func BenchmarkProfilerWindowed(b *testing.B) { benchProfiler(b, WithWindow(400)) }

// BenchmarkProfileExtraction measures Profile() — the merge of the
// per-branch counter halves into the flat pair list — and reports
// extracted pairs per second. With 2000 statics every counter stays
// cache-resident; gcc's 15,970 statics spread the counters, buckets and
// list over far more memory, as the harness's largest benchmark does.
func BenchmarkProfileExtraction(b *testing.B) {
	for _, statics := range []int{2000, 15970} {
		b.Run(fmt.Sprintf("statics=%d", statics), func(b *testing.B) {
			stream := syntheticStream(statics, 200, 1<<19)
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
	stream := syntheticStream(2000, 200, 1<<17)
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
