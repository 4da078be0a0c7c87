package profile

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// recencyReference replays a pc stream through a plain move-to-front
// list and adds every interleave partner to its branch's counter one
// increment at a time: the per-event, per-increment staging the
// coalescing profiler must match slot for slot. Ids are assigned in
// first-touch order, as the Profiler assigns them. It also reports the
// increments whose window-clipped prefix equals the prefix of the same
// branch's previous execution that had one — the increments the
// Profiler coalesces instead of staging.
type recencyReference struct {
	window    int
	idOf      map[uint64]int32
	list      []int32
	last      [][]int32
	counters  []nbrCounter
	coalesced uint64
	total     uint64
}

func newRecencyReference(window int) *recencyReference {
	return &recencyReference{window: window, idOf: make(map[uint64]int32)}
}

func (r *recencyReference) Branch(pc uint64, _ bool, _ uint64) {
	id, ok := r.idOf[pc]
	if !ok {
		id = int32(len(r.idOf))
		r.idOf[pc] = id
		r.list = append([]int32{id}, r.list...)
		r.last = append(r.last, nil)
		r.counters = append(r.counters, nbrCounter{})
		return
	}
	pos := 0
	for r.list[pos] != id {
		pos++
	}
	emit := pos
	if r.window > 0 && r.window < emit {
		emit = r.window
	}
	if emit > 0 {
		prefix := r.list[:emit]
		for _, cur := range prefix {
			r.counters[id].addN(cur, 1)
		}
		r.total += uint64(emit)
		if slices.Equal(r.last[id], prefix) {
			r.coalesced += uint64(emit)
		}
		r.last[id] = append(r.last[id][:0], prefix...)
	}
	copy(r.list[1:pos+1], r.list[:pos])
	r.list[0] = id
}

// pairList extracts the reference counters the way Profile does, so the
// Range sequences of the two can be compared.
func (r *recencyReference) pairList() PairList {
	p := &Profiler{
		pcs: make([]uint64, len(r.counters)),
		nbr: r.counters,
	}
	return p.extractPairs()
}

// checkSlots compares every branch's raw counter slot array in p (which
// Profile has drained) against the per-increment reference, and the
// extracted list's Range sequence against the reference's.
func checkSlots(t *testing.T, label string, p *Profiler, got PairList, ref *recencyReference) {
	t.Helper()
	if len(p.pcs) != len(ref.counters) {
		t.Fatalf("%s: profiler has %d branches, reference %d", label, len(p.pcs), len(ref.counters))
	}
	for id := range ref.counters {
		c, want := &p.nbr[id], &ref.counters[id]
		if c.n != want.n || len(c.slots) != len(want.slots) {
			t.Fatalf("%s: branch %d has %d keys in %d slots, per-increment reference %d in %d",
				label, id, c.n, len(c.slots), want.n, len(want.slots))
		}
		for i, s := range c.slots {
			if s != want.slots[i] {
				t.Fatalf("%s: branch %d slot %d = %#x, per-increment reference %#x", label, id, i, s, want.slots[i])
			}
		}
	}
	if g, w := rangeSeq(got), rangeSeq(ref.pairList()); g != w {
		t.Fatalf("%s: pair list Range sequence differs from the per-increment reference", label)
	}
}

// TestProfilerCoalescingSlotLayout runs scene-rotation streams — exact
// repeats, a branch dropped in some rotations, scene switches — through
// the coalescing Profiler with windows that clip and windows that do
// not, and a mid-stream Profile followed by more events.
// Every raw counter slot array and the pair list's Range sequence must
// equal a per-increment reference at both extraction points.
func TestProfilerCoalescingSlotLayout(t *testing.T) {
	const ws = 24
	for _, rot := range []struct {
		name      string
		dropOneIn int
	}{{"exact", 0}, {"perturbed", 3}} {
		stream := syntheticStream(4*ws, ws, 10_000, rot.dropOneIn)
		for _, window := range []int{0, 5, 2 * ws} {
			label := fmt.Sprintf("%s/window=%d", rot.name, window)
			t.Run(label, func(t *testing.T) {
				var opts []Option
				if window > 0 {
					opts = append(opts, WithWindow(window))
				}
				p := NewProfiler("rot", "ref", opts...)
				ref := newRecencyReference(window)
				mid := len(stream) / 2
				for i, pc := range stream {
					if i == mid {
						checkSlots(t, label+" mid-stream", p, p.Profile().Pairs, ref)
					}
					p.Branch(pc, false, uint64(i))
					ref.Branch(pc, false, uint64(i))
				}
				checkSlots(t, label, p, p.Profile().Pairs, ref)
				if ref.coalesced == 0 || ref.coalesced == ref.total {
					t.Fatalf("stream coalesces %d of %d increments; want some of each", ref.coalesced, ref.total)
				}
			})
		}
	}
}

// TestProfilerEventLimit pins the 32-bit count limit: the profiler
// takes its 2^32−1-th event and panics, with a message naming the limit,
// on the next one, before any count could carry into a partner key.
func TestProfilerEventLimit(t *testing.T) {
	p := NewProfiler("limit", "ref")
	p.Branch(4, true, 0)
	p.Branch(8, true, 1)
	p.branches = maxEvents - 1
	p.Branch(4, true, 2)
	if p.Branches() != maxEvents {
		t.Fatalf("Branches() = %d, want %d", p.Branches(), uint64(maxEvents))
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2^32-1 events") {
			t.Fatalf("event past the limit: recovered %q, want a panic naming the limit", msg)
		}
		if p.Branches() != maxEvents || p.exec[0] != 2 {
			t.Fatalf("rejected event changed state: Branches %d, exec %d", p.Branches(), p.exec[0])
		}
	}()
	p.Branch(4, true, 3)
}

// TestProfilerWeightedAdd checks weighted adds at the top of the 32-bit
// range: coalesced prefixes whose repeat counts sum to exactly 2^32−1,
// and a later prefix adding to a stored count, land in the low word of
// each slot with every partner key intact.
func TestProfilerWeightedAdd(t *testing.T) {
	const half = 1 << 31
	p := NewProfiler("weighted", "ref")
	for _, pc := range []uint64{0, 4, 8} {
		p.newID(pc)
	}
	p.emit(0, []int32{1, 2}, half)
	p.emit(1, []int32{0}, math.MaxUint32)
	p.emit(0, []int32{1}, half-1)
	counts := func(c *nbrCounter) map[int32]uint32 {
		out := make(map[int32]uint32)
		for _, s := range c.slots {
			if s != 0 {
				y, n := partner(s)
				out[y] = n
			}
		}
		return out
	}
	want := []map[int32]uint32{
		{1: math.MaxUint32, 2: half},
		{0: math.MaxUint32},
		{},
	}
	for id, w := range want {
		if got := counts(&p.nbr[id]); fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("branch %d counts %v, want %v", id, got, w)
		}
	}

	p.emit(0, []int32{2}, half-1)
	if got := counts(&p.nbr[0]); got[1] != math.MaxUint32 || got[2] != math.MaxUint32 || len(got) != 2 {
		t.Fatalf("branch 0 after a second weighted prefix: %v", got)
	}
}

// decodeRotations turns fuzz bytes into a scene-rotation stream. After
// three header bytes (unused, window, scene size; the first is kept so
// that committed corpus entries decode to the same streams), each byte
// is one instruction: switch to another overlapping scene, rotate the scene
// once with one branch skipped or two neighbours swapped, take a
// mid-stream checkpoint, or rotate it exactly one to four times. Exact
// rotations repeat every prefix, so the profiler's multiplicities climb
// above 1, which random byte streams almost never produce. A
// checkpoint is marked by a zero pc in the stream.
func decodeRotations(data []byte) (window int, stream []uint64) {
	window = int(data[1]) % 24 // 0 is unbounded; scenes hold at most 16 branches
	ws := 2 + int(data[2])%15
	start := 0
	rotate := func(skip, swap int) {
		for j := 0; j < ws; j++ {
			k := j
			if swap >= 0 && (j == swap || j == swap+1) {
				k = 2*swap + 1 - j
			}
			if k != skip && k < ws {
				stream = append(stream, uint64(start+k+1)*4)
			}
		}
	}
	const maxStream = 1 << 13
	for _, b := range data[3:] {
		if len(stream) > maxStream {
			break
		}
		arg := int(b >> 3)
		switch b & 7 {
		case 0:
			start = arg % 8 * (ws + 1) / 2
		case 1:
			rotate(arg%ws, -1)
		case 2:
			rotate(-1, arg%(ws-1))
		case 3:
			stream = append(stream, 0)
		default:
			for range 1 + arg%4 {
				rotate(-1, -1)
			}
		}
	}
	return window, stream
}

// FuzzProfilerCoalescing runs decoded scene-rotation streams through the
// coalescing Profiler and asserts, at every checkpoint and at the end,
// that every raw counter slot array and the pair list's Range sequence
// equal the per-increment reference; with window 0 the extracted pairs
// must also equal the naive reference pair by pair.
func FuzzProfilerCoalescing(f *testing.F) {
	f.Add([]byte{0, 0, 6, 0x07, 0x07, 0x08, 0x0f, 0x03, 0x09, 0x1f, 0x17})
	f.Add([]byte{1, 3, 10, 0x1f, 0x11, 0x1f, 0x0a, 0x1f, 0x03, 0x10, 0x1f, 0x21, 0x1f})
	f.Add([]byte{2, 0, 14, 0x1f, 0x03, 0x18, 0x1e, 0x29, 0x1d, 0x03, 0x1f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		window, stream := decodeRotations(data)
		var opts []Option
		if window > 0 {
			opts = append(opts, WithWindow(window))
		}
		p := NewProfiler("fuzz", "ref", opts...)
		ref := newRecencyReference(window)
		naive := NewNaiveProfiler("fuzz", "ref")
		label := fmt.Sprintf("window=%d", window)
		var got PairList
		for i, pc := range stream {
			if pc == 0 {
				got = p.Profile().Pairs
				checkSlots(t, label+" checkpoint", p, got, ref)
				continue
			}
			p.Branch(pc, false, uint64(i))
			ref.Branch(pc, false, uint64(i))
			naive.Branch(pc, false, uint64(i))
		}
		got = p.Profile().Pairs
		checkSlots(t, label, p, got, ref)
		if window != 0 {
			return
		}
		want := naive.Profile().Pairs
		if want.Len() != got.Len() {
			t.Fatalf("extracted %d pairs, naive reference %d", got.Len(), want.Len())
		}
		gotMap := pairMap(got)
		want.Range(func(k, v uint64) bool {
			if gotMap[k] != v {
				t.Fatalf("pair %#x: extracted %d, naive reference %d", k, gotMap[k], v)
			}
			return true
		})
	})
}
