package profile

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
)

// pairDump renders a pair table or list canonically: sorted by key, one
// line per pair. Two tables with identical contents dump identically
// regardless of seed, layout or list order.
func pairDump(t interface {
	Range(func(key, count uint64) bool)
}) string {
	type kv struct{ k, v uint64 }
	var pairs []kv
	t.Range(func(k, v uint64) bool {
		pairs = append(pairs, kv{k, v})
		return true
	})
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for _, p := range pairs {
		a, c := UnpackPair(p.k)
		fmt.Fprintf(&b, "%d-%d:%d\n", a, c, p.v)
	}
	return b.String()
}

// synthStream drives a deterministic pseudo-random branch stream into
// each sink: a few hundred static branches with skewed reuse, enough to
// exercise shard routing, batch flushes, and table growth.
func synthStream(events int, seed uint64, sinks ...interface {
	Branch(pc uint64, taken bool, icount uint64)
}) {
	r := rng.New(seed)
	const static = 300
	for i := 0; i < events; i++ {
		// Zipf-ish reuse: half the events hit a small hot set.
		var id uint64
		if r.Uint64()%2 == 0 {
			id = r.Uint64() % 16
		} else {
			id = r.Uint64() % static
		}
		pc := 0x1000 + id*4
		taken := r.Uint64()%3 == 0
		for _, s := range sinks {
			s.Branch(pc, taken, uint64(i))
		}
	}
}

// rangeSeq renders a pair list in its own Range order, one line per
// pair, for comparisons that must also match order.
func rangeSeq(l PairList) string {
	var b strings.Builder
	l.Range(func(k, v uint64) bool {
		fmt.Fprintf(&b, "%#x:%d\n", k, v)
		return true
	})
	return b.String()
}

// TestShardedProfilerMatchesSerial is the profiler-level differential
// test: for shard counts {1, 2, 3, 7, GOMAXPROCS} the extracted profile
// — pair contents, their Range order, per-branch stats — must equal the
// serial profiler's exactly, and its contents the naive reference's.
func TestShardedProfilerMatchesSerial(t *testing.T) {
	shardCounts := []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)}

	serial := NewProfiler("synth", "ref")
	naive := NewNaiveProfiler("synth", "ref")
	synthStream(60_000, 42, serial, naive)
	want := serial.Profile()
	defer want.Release()
	wantDump := pairDump(want.Pairs)
	wantSeq := rangeSeq(want.Pairs)

	nv := naive.Profile()
	if got := pairDump(nv.Pairs); got != wantDump {
		t.Fatalf("serial profiler disagrees with naive reference")
	}

	for _, n := range shardCounts {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			sharded := NewProfiler("synth", "ref", WithShards(n))
			if got := sharded.Shards(); n > 1 && got != n {
				t.Fatalf("Shards() = %d, want %d", got, n)
			}
			synthStream(60_000, 42, sharded)
			p := sharded.Profile()
			defer p.Release()
			if got := pairDump(p.Pairs); got != wantDump {
				t.Errorf("shards=%d pair table differs from serial", n)
			}
			if got := rangeSeq(p.Pairs); got != wantSeq {
				t.Errorf("shards=%d pair list Range order differs from serial", n)
			}
			if p.NumBranches() != want.NumBranches() {
				t.Errorf("shards=%d static branches = %d, want %d", n, p.NumBranches(), want.NumBranches())
			}
			for id := range p.Exec {
				if p.Exec[id] != want.Exec[id] || p.Taken[id] != want.Taken[id] {
					t.Fatalf("shards=%d per-branch stats differ at id %d", n, id)
				}
			}
		})
	}
}

// TestShardedProfilerWindowed checks equivalence with a bounded scan
// window, where the sharded loop takes its early-exit branch.
func TestShardedProfilerWindowed(t *testing.T) {
	serial := NewProfiler("synth", "ref", WithWindow(8))
	sharded := NewProfiler("synth", "ref", WithWindow(8), WithShards(5))
	synthStream(30_000, 7, serial, sharded)
	a, b := serial.Profile(), sharded.Profile()
	defer a.Release()
	defer b.Release()
	if pairDump(a.Pairs) != pairDump(b.Pairs) {
		t.Fatal("windowed sharded profile differs from serial")
	}
}

// TestShardedProfilerResumes verifies the documented lifecycle: Profile
// quiesces the shard workers, and further events accumulate on top with
// the workers restarted transparently.
func TestShardedProfilerResumes(t *testing.T) {
	serial := NewProfiler("synth", "ref")
	sharded := NewProfiler("synth", "ref", WithShards(4))

	synthStream(10_000, 1, serial, sharded)
	mid := sharded.Profile()
	midSerial := serial.Profile()
	if pairDump(mid.Pairs) != pairDump(midSerial.Pairs) {
		t.Fatal("mid-stream sharded profile differs from serial")
	}
	mid.Release()
	midSerial.Release()

	synthStream(10_000, 2, serial, sharded)
	end := sharded.Profile()
	endSerial := serial.Profile()
	defer end.Release()
	defer endSerial.Release()
	if pairDump(end.Pairs) != pairDump(endSerial.Pairs) {
		t.Fatal("resumed sharded profile differs from serial")
	}
}
