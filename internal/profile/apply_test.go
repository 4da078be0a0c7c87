package profile

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// applyEvent is one staged profiler header: the executing branch, its
// interleave partners, their multiplicity, and how many branch ids had
// been assigned.
type applyEvent struct {
	id       int32
	partners []int32
	rep      uint32
	numIDs   int
}

// recencyEvents generates the events a Profiler's recency scan would
// stage for a skewed random branch stream, with dense ids assigned in
// first-touch order.
func recencyEvents(events int, seed uint64) (out []applyEvent, numIDs int) {
	r := rng.New(seed)
	const static = 200
	idOf := make(map[uint64]int32)
	var list []int32
	for i := 0; i < events; i++ {
		pc := r.Uint64() % static
		if r.Uint64()%2 == 0 {
			pc %= 12
		}
		id, ok := idOf[pc]
		if !ok {
			id = int32(len(idOf))
			idOf[pc] = id
			list = append([]int32{id}, list...)
			continue
		}
		pos := slices.Index(list, id)
		if pos > 0 {
			out = append(out, applyEvent{id, slices.Clone(list[:pos]), 1, len(idOf)})
		}
		copy(list[1:pos+1], list[:pos])
		list[0] = id
	}
	return out, len(idOf)
}

// TestDenseApplySlotLayout checks the dense per-row apply against a
// per-increment reference apply slot for slot: every branch's raw
// counter array, not a sorted dump, must match for every batch
// geometry, including batches that split one event's partner prefix,
// both for unit headers and for weighted ones, whose reference adds each
// partner once per repeat.
func TestDenseApplySlotLayout(t *testing.T) {
	unit, numIDs := recencyEvents(20_000, 3)
	weighted := slices.Clone(unit)
	r := rng.New(5)
	for i := range weighted {
		weighted[i].rep = 1 + uint32(r.Intn(4))
	}
	for _, tc := range []struct {
		prefix string
		events []applyEvent
	}{{"", unit}, {"weighted/", weighted}} {
		testDenseApply(t, tc.prefix, tc.events, numIDs)
	}
}

// testDenseApply checks one header list for every batch geometry;
// prefix starts the subtest names.
func testDenseApply(t *testing.T, prefix string, events []applyEvent, numIDs int) {
	ref := make([]nbrCounter, numIDs)
	increments := 0
	for _, e := range events {
		for range e.rep {
			for _, cur := range e.partners {
				ref[e.id].addN(cur, 1)
				increments++
			}
		}
	}
	if increments < 100_000 {
		t.Fatalf("stream too sparse: %d increments", increments)
	}

	for _, batchCap := range []int{4, 37, 1000, 1 << 16} {
		t.Run(fmt.Sprintf("%sbatch=%d", prefix, batchCap), func(t *testing.T) {
			s := pairAccum{batchCap: batchCap}
			for _, e := range events {
				s.numIDs = e.numIDs
				s.emit(e.id, e.partners, e.rep)
			}
			s.flush()
			for id := range ref {
				var got nbrCounter
				if id < len(s.tabs) {
					got = s.tabs[id]
				}
				if got.n != ref[id].n || len(got.slots) != len(ref[id].slots) {
					t.Fatalf("branch %d: dense apply %d keys in %d slots, per-increment %d in %d",
						id, got.n, len(got.slots), ref[id].n, len(ref[id].slots))
				}
				for i, slot := range got.slots {
					if slot != ref[id].slots[i] {
						t.Fatalf("branch %d slot %d: dense apply %#x, per-increment %#x", id, i, slot, ref[id].slots[i])
					}
				}
			}
		})
	}
}
