package profile

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
)

// recencyReference replays a pc stream through a plain move-to-front
// list and adds every interleave increment, one at a time, to the
// pair's slot in its lower id's counter: the per-event, per-increment
// staging whose pair counts the coalescing profiler must match. Ids are
// assigned in first-touch order, as the Profiler assigns them. It also
// reports the increments whose window-clipped prefix equals the prefix
// of the same branch's previous execution that had one — the
// increments the Profiler coalesces instead of staging.
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
			r.counters[min(id, cur)].addN(max(id, cur), 1)
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

// storedPairs reads counters into a map by pair key, failing t unless
// every counter holds only partners above its owner, which is what
// stores each pair in exactly one slot.
func storedPairs(t *testing.T, label string, counters []nbrCounter) map[uint64]uint64 {
	t.Helper()
	out := make(map[uint64]uint64)
	for id := range counters {
		for _, s := range counters[id].slots {
			if s == 0 {
				continue
			}
			y, c := partner(s)
			if int(y) <= id {
				t.Fatalf("%s: counter %d holds partner %d, not above its owner", label, id, y)
			}
			out[PairKey(int32(id), y)] = uint64(c)
		}
	}
	return out
}

// checkSlots checks p's counters (which Profile has drained) and the
// pair list got it extracted from them: every counter holds only
// partners above its owner, the counters' entry counts sum to the
// list's length, the list is exactly sized and holds each key once in
// rows of ascending smaller id, every pair's count equals the
// per-increment reference's and, unless naive is nil, the naive
// profiler's, and the counts sum to the reference's increment total.
// Slot order is not compared: coalescing delays emissions into a
// counter that several branches feed, and no output depends on the
// order of partners within a row (TestRowOrderInvariance in
// internal/harness pins that).
func checkSlots(t *testing.T, label string, p *Profiler, got PairList, ref *recencyReference, naive *NaiveProfiler) {
	t.Helper()
	if len(p.pcs) != len(ref.counters) {
		t.Fatalf("%s: profiler has %d branches, reference %d", label, len(p.pcs), len(ref.counters))
	}
	stored := storedPairs(t, label, p.nbr)
	entries := 0
	for id := range p.nbr {
		entries += p.nbr[id].n
	}
	if entries != got.Len() {
		t.Fatalf("%s: counters hold %d entries, pair list %d", label, entries, got.Len())
	}
	checkPairListShape(t, got)
	gotMap := pairMap(got)
	if !maps.Equal(gotMap, stored) {
		t.Fatalf("%s: pair list differs from the counters it was extracted from", label)
	}
	want := storedPairs(t, label+" reference", ref.counters)
	if !maps.Equal(gotMap, want) {
		t.Fatalf("%s: %d pairs differ from the per-increment reference's %d:\n%v\nwant:\n%v",
			label, len(gotMap), len(want), gotMap, want)
	}
	var sum uint64
	for _, c := range gotMap {
		sum += c
	}
	if sum != ref.total {
		t.Fatalf("%s: pair counts sum to %d, reference counted %d increments", label, sum, ref.total)
	}
	if naive == nil {
		return
	}
	if want := pairMap(naive.Profile().Pairs); !maps.Equal(gotMap, want) {
		t.Fatalf("%s: %d pairs differ from the naive reference's %d", label, len(gotMap), len(want))
	}
}

// TestProfilerCoalescingSlotLayout runs scene-rotation streams — exact
// repeats, a branch dropped in some rotations, scene switches — through
// the coalescing Profiler with windows that clip and windows that do
// not, and a mid-stream Profile followed by more events. At both
// extraction points checkSlots must find every pair stored once, in
// its lower id's counter, with the per-increment reference's count and,
// unclipped, the naive reference's.
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
				var naive *NaiveProfiler
				if window == 0 {
					naive = NewNaiveProfiler("rot", "ref")
				}
				mid := len(stream) / 2
				for i, pc := range stream {
					if i == mid {
						checkSlots(t, label+" mid-stream", p, p.Profile().Pairs, ref, naive)
					}
					p.Branch(pc, false, uint64(i))
					ref.Branch(pc, false, uint64(i))
					if naive != nil {
						naive.Branch(pc, false, uint64(i))
					}
				}
				checkSlots(t, label, p, p.Profile().Pairs, ref, naive)
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
// range: coalesced prefixes of both endpoints of one pair, whose repeat
// counts sum to exactly 2^32−1, land in the low word of that pair's one
// slot in its lower id's counter, and a later prefix adding to a stored
// count does too, with every partner key intact.
func TestProfilerWeightedAdd(t *testing.T) {
	const half = 1 << 31
	p := NewProfiler("weighted", "ref")
	for _, pc := range []uint64{0, 4, 8} {
		p.newID(pc)
	}
	p.emit(0, []int32{1, 2}, half)
	p.emit(1, []int32{0}, half-1)
	p.emit(2, []int32{1}, math.MaxUint32)
	check := func(when string, want []map[int32]uint32) {
		t.Helper()
		for id, w := range want {
			c := &p.nbr[id]
			got := make(map[int32]uint32)
			for _, s := range c.slots {
				if s != 0 {
					y, n := partner(s)
					got[y] = n
				}
			}
			if c.n != len(w) || fmt.Sprint(got) != fmt.Sprint(w) {
				t.Fatalf("%s: branch %d holds %d entries %v, want %v", when, id, c.n, got, w)
			}
		}
	}
	check("both directions", []map[int32]uint32{
		{1: math.MaxUint32, 2: half},
		{2: math.MaxUint32},
		{},
	})

	p.emit(2, []int32{0}, half-1)
	check("a second weighted prefix", []map[int32]uint32{
		{1: math.MaxUint32, 2: math.MaxUint32},
		{2: math.MaxUint32},
		{},
	})
}

// maxFuzzStream bounds a decoded fuzz stream; a decoder stops taking
// instructions once its stream is longer.
const maxFuzzStream = 1 << 13

// decodeRotations turns fuzz bytes into a scene-rotation stream. After
// three header bytes (mode, window, scene size), each byte is one
// instruction. A mode byte of 0x80 or above selects the near-periodic
// loop bodies of decodePeriodic; below it (as in the committed corpus
// entries that predate that mode) each instruction switches to another
// overlapping scene, rotates the scene once with one branch skipped or
// two neighbours swapped, takes a mid-stream checkpoint, or rotates it
// exactly one to four times. Exact rotations repeat every prefix, so
// the profiler's multiplicities climb above 1, which random byte
// streams almost never produce. A checkpoint is marked by a zero pc in
// the stream.
func decodeRotations(data []byte) (window int, stream []uint64) {
	window = int(data[1]) % 24 // 0 is unbounded; scenes hold at most 16 branches
	ws := 2 + int(data[2])%15
	if data[0] >= 0x80 {
		return window, decodePeriodic(ws, data[3:])
	}
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
	for _, b := range data[3:] {
		if len(stream) > maxFuzzStream {
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

// decodePeriodic turns fuzz instructions into near-periodic loops, the
// streams the profiler's period skipping acts on. The loop body is a
// scene of ws branches with an inner loop over part of it run several
// times, so its periods nest. Each instruction runs the body two to
// nine times, runs it once broken at a chosen phase (a branch dropped,
// or a branch from outside every scene inserted), re-nests the inner
// loop, switches scene, takes a checkpoint, or runs one rotation over
// more branches than the longest period the profiler skips.
func decodePeriodic(ws int, ops []byte) []uint64 {
	var stream []uint64
	start, lo, n, reps := 0, 0, 0, 1
	body := func() []uint64 {
		var out []uint64
		for j := 0; j < ws; j++ {
			out = append(out, uint64(start+j+1)*4)
			if j == lo+n-1 {
				for range reps - 1 {
					for k := lo; k < lo+n; k++ {
						out = append(out, uint64(start+k+1)*4)
					}
				}
			}
		}
		return out
	}
	for _, b := range ops {
		if len(stream) > maxFuzzStream {
			break
		}
		arg := int(b >> 3)
		switch b & 7 {
		case 0:
			start = arg % 8 * (ws + 1) / 2
		case 1:
			lo = arg % ws
			n, reps = 1+arg%(ws-lo), 2+arg%7
		case 2:
			cur := body()
			phase := arg % len(cur)
			stream = append(append(stream, cur[:phase]...), cur[phase+1:]...)
		case 3:
			stream = append(stream, 0)
		case 4:
			cur := body()
			phase := arg % len(cur)
			stream = append(append(append(stream, cur[:phase]...), uint64(100+arg%4)*4), cur[phase:]...)
		case 5:
			for j := range maxPeriod + 1 + arg {
				stream = append(stream, uint64(200+j)*4)
			}
		default:
			cur := body()
			for range 2 + arg%8 {
				stream = append(stream, cur...)
			}
		}
	}
	return stream
}

// FuzzProfilerCoalescing runs decoded scene-rotation and near-periodic
// streams through the Profiler, and checks with checkStream that at
// every checkpoint and at the end every pair is stored once, in its
// lower id's counter, with the per-increment reference's count and,
// with window 0, the naive reference's, and that the pair counts sum
// to the pair-increment total.
func FuzzProfilerCoalescing(f *testing.F) {
	f.Add([]byte{0, 0, 6, 0x07, 0x07, 0x08, 0x0f, 0x03, 0x09, 0x1f, 0x17})
	f.Add([]byte{1, 3, 10, 0x1f, 0x11, 0x1f, 0x0a, 0x1f, 0x03, 0x10, 0x1f, 0x21, 0x1f})
	f.Add([]byte{2, 0, 14, 0x1f, 0x03, 0x18, 0x1e, 0x29, 0x1d, 0x03, 0x1f})
	f.Add([]byte{0x80, 0, 9, 0x3f, 0x12, 0x3f, 0x0b, 0x3f, 0x24, 0x3f, 0x03, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		window, stream := decodeRotations(data)
		checkStream(t, fmt.Sprintf("window=%d", window), window, stream)
	})
}
