package predict

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// zooFixtureStream is the deterministic fixture program every golden
// state trace runs: three branches — one periodic, one biased, one
// pseudo-random — with irregular interleaving, the mix the allocation
// study cares about. Everything derives from internal/rng, so the stream
// is identical on every platform and run.
func zooFixtureStream(n int) []event {
	r := rng.New(42)
	var out []event
	for i := 0; i < n; i++ {
		out = append(out, event{0x40, i%3 != 0})    // periodic T T N
		out = append(out, event{0x80, r.Bool(0.9)}) // 90% taken
		if r.Bool(0.5) {
			out = append(out, event{0xc0, r.Bool(0.5)}) // coin flip, irregular
		}
	}
	return out
}

// zooTestConfig keeps the golden snapshots small: 16-entry tables, a
// 64-entry PAg PHT, 8 bits of perceptron history.
var zooTestConfig = ZooConfig{TableSize: 16, PHTEntries: 64, HistoryLength: 8}

func newZooMember(t *testing.T, kind string, ix Indexer) ZooPredictor {
	t.Helper()
	p, err := NewZooPredictor(kind, ix, zooTestConfig)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestZooGoldenStateTraces drives each zoo member over the fixture
// stream and compares checkpointed Snapshot dumps against committed
// goldens — the predictor's behavioral specification. Regenerate with
// `go test ./internal/predict -run ZooGolden -update` after a deliberate
// behavior change, and review the diff like code.
func TestZooGoldenStateTraces(t *testing.T) {
	stream := zooFixtureStream(300)
	checkpoints := []int{10, 100, len(stream)}
	for _, kind := range ZooKinds() {
		t.Run(kind, func(t *testing.T) {
			p := newZooMember(t, kind, PCModIndexer{Entries: zooTestConfig.TableSize})
			var b strings.Builder
			next := 0
			for i, e := range stream {
				if p.Predict(e.pc) != e.taken {
					// Mispredictions are part of the trace: they pin the
					// prediction path, not just the training path.
					fmt.Fprintf(&b, "miss @%d pc=%#x\n", i, e.pc)
				}
				p.Update(e.pc, e.taken)
				if next < len(checkpoints) && i+1 == checkpoints[next] {
					fmt.Fprintf(&b, "--- after %d events ---\n%s", i+1, p.Snapshot())
					next++
				}
			}
			checkZooGolden(t, "zoo_"+kind+".golden", b.String())
		})
	}
}

func checkZooGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestZooFlushEqualsFresh: for every member, a predictor that consumed a
// stream and then Flushed is byte-identical — snapshot and onward
// behavior — to a newly constructed one. This is the contract the
// harness's per-benchmark reuse depends on.
func TestZooFlushEqualsFresh(t *testing.T) {
	stream := zooFixtureStream(200)
	for _, kind := range ZooKinds() {
		t.Run(kind, func(t *testing.T) {
			used := newZooMember(t, kind, PCModIndexer{Entries: zooTestConfig.TableSize})
			for _, e := range stream {
				used.Predict(e.pc)
				used.Update(e.pc, e.taken)
			}
			used.Flush()
			fresh := newZooMember(t, kind, PCModIndexer{Entries: zooTestConfig.TableSize})
			if used.Snapshot() != fresh.Snapshot() {
				t.Fatalf("flushed snapshot differs from fresh:\n%s\nvs\n%s", used.Snapshot(), fresh.Snapshot())
			}
			// And they stay in lockstep on a replay.
			for i, e := range stream {
				if used.Predict(e.pc) != fresh.Predict(e.pc) {
					t.Fatalf("flushed and fresh diverge at event %d", i)
				}
				used.Update(e.pc, e.taken)
				fresh.Update(e.pc, e.taken)
			}
		})
	}
}

// TestZooSnapshotDeterminism: two instances of the same member fed the
// same stream produce byte-identical snapshots.
func TestZooSnapshotDeterminism(t *testing.T) {
	stream := zooFixtureStream(250)
	for _, kind := range ZooKinds() {
		t.Run(kind, func(t *testing.T) {
			a := newZooMember(t, kind, PCModIndexer{Entries: zooTestConfig.TableSize})
			b := newZooMember(t, kind, PCModIndexer{Entries: zooTestConfig.TableSize})
			for _, e := range stream {
				a.Predict(e.pc)
				b.Predict(e.pc)
				a.Update(e.pc, e.taken)
				b.Update(e.pc, e.taken)
			}
			if a.Snapshot() != b.Snapshot() {
				t.Fatal("identical streams produced different snapshots")
			}
		})
	}
}

// TestZooAllocatedVariants: every member constructs and runs with an
// AllocIndexer, the substitution the research question is about.
func TestZooAllocatedVariants(t *testing.T) {
	m := core.NewAllocationMap(zooTestConfig.TableSize, []uint64{0x40, 0x80, 0xc0}, []int{0, 1, 2}, -1, -1)
	stream := zooFixtureStream(150)
	for _, kind := range ZooKinds() {
		t.Run(kind, func(t *testing.T) {
			p := newZooMember(t, kind, AllocIndexer{Map: m})
			if !strings.Contains(p.Name(), "allocated") {
				t.Fatalf("allocated variant name %q", p.Name())
			}
			s := NewSim(p)
			for i, e := range stream {
				s.Branch(e.pc, e.taken, uint64(i))
			}
			if s.Branches() == 0 {
				t.Fatal("sim recorded nothing")
			}
		})
	}
}

func TestNewZooPredictorErrors(t *testing.T) {
	ix := PCModIndexer{Entries: 16}
	if _, err := NewZooPredictor("nonesuch", ix, ZooConfig{TableSize: 16}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, kind := range ZooKinds() {
		if _, err := NewZooPredictor(kind, ix, ZooConfig{TableSize: 17}); err == nil && kind != KindPAg {
			t.Errorf("%s accepted non-power-of-two table size", kind)
		}
	}
	// An indexer over no entries is rejected by every kind, before any
	// Index call could divide by its size.
	for _, bad := range []Indexer{PCModIndexer{Entries: 0}, PCModIndexer{Entries: -4}, AllocIndexer{Map: &core.AllocationMap{}}} {
		for _, kind := range ZooKinds() {
			if _, err := NewZooPredictor(kind, bad, ZooConfig{TableSize: 16}); err == nil {
				t.Errorf("%s accepted a %s indexer of size %d", kind, bad.Name(), bad.Size())
			}
		}
	}
	// Defaults fill in PHT and history length.
	p, err := NewZooPredictor(KindPerceptron, ix, ZooConfig{TableSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if want := perceptronTheta(16); p.(*Perceptron).theta != want {
		t.Fatalf("default history not applied: theta %d, want %d", p.(*Perceptron).theta, want)
	}
}

func TestValidZooKind(t *testing.T) {
	for _, kind := range ZooKinds() {
		if !ValidZooKind(kind) {
			t.Errorf("ValidZooKind(%q) = false", kind)
		}
	}
	if ValidZooKind("pag ") || ValidZooKind("") || ValidZooKind("bimodal") {
		t.Error("invalid kind accepted")
	}
}
