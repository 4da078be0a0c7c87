package harness

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// permuteRows returns a copy of p whose pair list holds the same pairs,
// still in rows of ascending smaller id, with the partners inside each
// row shuffled by r.
func permuteRows(p *profile.Profile, r *rng.Xoshiro256) *profile.Profile {
	var pairs []profile.PairCount
	p.Pairs.Range(func(k, c uint64) bool {
		a, b := profile.UnpackPair(k)
		pairs = append(pairs, profile.PairCount{A: a, B: b, Count: c})
		return true
	})
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].A == pairs[lo].A {
			hi++
		}
		row := slices.Clone(pairs[lo:hi])
		for i, j := range r.Perm(len(row)) {
			pairs[lo+i] = row[j]
		}
		lo = hi
	}
	return &profile.Profile{
		Benchmark: p.Benchmark,
		InputSets: p.InputSets,
		PCs:       p.PCs,
		Exec:      p.Exec,
		Taken:     p.Taken,
		Pairs:     profile.NewPairList(p.NumBranches(), pairs),
	}
}

// pairOrder lists a pair list's keys in Range order.
func pairOrder(l profile.PairList) []uint64 {
	keys := make([]uint64, 0, l.Len())
	l.Range(func(k, _ uint64) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// TestRowOrderInvariance pins the property the profiler's counter layout
// rests on: no output depends on the order of partners within a row of
// a profile's pair list. The real profiles of li and gcc at scale 0.1,
// with every row shuffled, must give the same conflict graphs at four
// thresholds, the same grouped working-set analysis, and the same
// graph after a merge with another input set's profile.
func TestRowOrderInvariance(t *testing.T) {
	s := NewSuite(Config{Scale: 0.1})
	r := rng.New(36)
	for _, name := range []string{"li", "gcc"} {
		ref, err := s.Artifacts(name, workload.InputRef)
		if err != nil {
			t.Fatal(err)
		}
		other, err := s.Artifacts(name, workload.InputA)
		if err != nil {
			t.Fatal(err)
		}
		orig, perm := ref.Profile, permuteRows(ref.Profile, r)
		if slices.Equal(pairOrder(orig.Pairs), pairOrder(perm.Pairs)) {
			t.Fatalf("%s: shuffling the rows left the pair order unchanged", name)
		}

		for _, th := range []uint64{50, 100, 500, 1000} {
			g, pg := orig.BuildGraph(th), perm.BuildGraph(th)
			if th == 100 && g.NumEdges() == 0 {
				t.Fatalf("%s: no edge at threshold 100", name)
			}
			if !reflect.DeepEqual(g, pg) {
				t.Fatalf("%s: threshold %d: graph of the shuffled rows differs (%d edges, weight %d; want %d, %d)",
					name, th, pg.NumEdges(), pg.TotalWeight(), g.NumEdges(), g.TotalWeight())
			}
		}

		cfg := core.AnalysisConfig{Threshold: s.cfg.Threshold, CliqueBudget: s.cfg.CliqueBudget}
		grouped, err := core.AnalyzeGrouped(orig, cfg, classify.Default())
		if err != nil {
			t.Fatal(err)
		}
		pgrouped, err := core.AnalyzeGrouped(perm, cfg, classify.Default())
		if err != nil {
			t.Fatal(err)
		}
		grouped.Analysis.Profile, pgrouped.Analysis.Profile = nil, nil
		if !reflect.DeepEqual(grouped, pgrouped) {
			t.Fatalf("%s: grouped analysis of the shuffled rows differs", name)
		}

		merged, err := profile.Merge(orig, other.Profile)
		if err != nil {
			t.Fatal(err)
		}
		pmerged, err := profile.Merge(perm, permuteRows(other.Profile, r))
		if err != nil {
			t.Fatal(err)
		}
		threshold := s.cfg.Threshold
		if !reflect.DeepEqual(merged.BuildGraph(threshold), pmerged.BuildGraph(threshold)) {
			t.Fatalf("%s: merged graph of the shuffled rows differs", name)
		}
	}
}

// BenchmarkProfileWorkloads measures the profiler on real filtered
// streams at scale 0.1, recorded once from the harness's own filtered
// re-execution and fed to a fresh Profiler configured as the harness
// configures it. It reports the two profile layers separately:
// stream-ns/op feeds the events, profile-ns/op is Profile()'s
// extraction, and Mpairs/s is the extracted pairs per second of it.
func BenchmarkProfileWorkloads(b *testing.B) {
	s := NewSuite(Config{Scale: 0.1})
	for _, name := range []string{"gcc", "python", "ss", "chess"} {
		b.Run(name, func(b *testing.B) {
			a, err := s.Artifacts(name, workload.InputRef)
			if err != nil {
				b.Fatal(err)
			}
			var events []trace.Event
			if err := s.replayFiltered(a, vm.BranchFunc(func(pc uint64, taken bool, icount uint64) {
				events = append(events, trace.Event{PC: pc, Taken: taken, ICount: icount})
			})); err != nil {
				b.Fatal(err)
			}
			window := profileWindow(a.Spec)
			var stream, extract time.Duration
			pairs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := profile.NewProfiler(name, a.Input.Name, profile.WithWindow(window))
				p.Reserve(a.Spec.StaticBranches())
				start := time.Now()
				for _, e := range events {
					p.Branch(e.PC, e.Taken, e.ICount)
				}
				mid := time.Now()
				prof := p.Profile()
				extract += time.Since(mid)
				stream += mid.Sub(start)
				pairs = prof.Pairs.Len()
			}
			b.ReportMetric(float64(stream.Nanoseconds())/float64(b.N), "stream-ns/op")
			b.ReportMetric(float64(extract.Nanoseconds())/float64(b.N), "profile-ns/op")
			b.ReportMetric(float64(pairs)*float64(b.N)/extract.Seconds()/1e6, "Mpairs/s")
		})
	}
}
