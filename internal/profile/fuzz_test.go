package profile

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

// FuzzPairList decodes the input into pair entries over fuzzPairIDs ids
// and checks NewPairList, and Merge over the entries split across
// profiles, against a reference Go map. The input is read 9 bytes at a
// time: an 8-byte record whose two 32-bit halves pick the pair's ids, in
// either orientation, and an opcode byte that picks the profile the
// entry lands in, the count, and whether the ids fold into a small range
// so that the same pair repeats within and across profiles. Each
// profile numbers the ids in its own rotation, so Merge must remap them
// through the PCs.
func FuzzPairList(f *testing.F) {
	seed := make([]byte, 0, 9*16)
	for i := 0; i < 16; i++ {
		var rec [9]byte
		binary.LittleEndian.PutUint64(rec[:8], uint64(i)*0x9e3779b97f4a7c15)
		rec[8] = byte(i * 37)
		seed = append(seed, rec[:]...)
	}
	f.Add(seed)
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		const n, nProfiles = fuzzPairIDs, 4
		var all []PairCount
		split := make([][]PairCount, nProfiles)
		ref := make(map[uint64]uint64)
		for ; len(data) >= 9; data = data[9:] {
			rec, op := binary.LittleEndian.Uint64(data), data[8]
			a, b := int32(uint32(rec)%n), int32(uint32(rec>>32)%n)
			if op&1 == 0 {
				a, b = a%8, b%8
			}
			if a == b {
				continue
			}
			delta := uint64(op>>4) + 1
			all = append(all, PairCount{A: a, B: b, Count: delta})
			i := int(op>>1) % nProfiles
			split[i] = append(split[i], PairCount{A: (a + int32(i)) % n, B: (b + int32(i)) % n, Count: delta})
			ref[PairKey(a, b)] += delta
		}

		l := NewPairList(n, all)
		checkPairListShape(t, l)
		if got := pairMap(l); !maps.Equal(got, ref) {
			t.Fatalf("NewPairList holds %d pairs %v, reference map %d pairs %v", len(got), got, len(ref), ref)
		}

		// Profile i's local id x is global id x-i, so PC (x-i+1)*4.
		profiles := make([]*Profile, nProfiles)
		for i := range profiles {
			p := &Profile{Benchmark: "fuzz", PCs: make([]uint64, n), Exec: make([]uint64, n), Taken: make([]uint64, n)}
			for x := range p.PCs {
				p.PCs[x] = uint64((x-i+n)%n+1) * 4
			}
			p.Pairs = NewPairList(n, split[i])
			profiles[i] = p
		}
		merged, err := Merge(profiles...)
		if err != nil {
			t.Fatal(err)
		}
		checkPairListShape(t, merged.Pairs)
		got := make(map[uint64]uint64, merged.Pairs.Len())
		merged.Pairs.Range(func(k, v uint64) bool {
			a, b := UnpackPair(k)
			got[PairKey(int32(merged.PCs[a]/4-1), int32(merged.PCs[b]/4-1))] = v
			return true
		})
		if !maps.Equal(got, ref) {
			t.Fatalf("Merge holds %d pairs %v, reference map %d pairs %v", len(got), got, len(ref), ref)
		}
	})
}

// fuzzPairIDs is the id count FuzzPairList's pairs range over.
const fuzzPairIDs = 64

// FuzzProfileExtraction decodes the input into a branch stream over at
// most 64 pcs and a scan window (the first byte is unused, so committed
// corpus entries decode to the same streams), and checks the extracted
// pair list against the counters it came from, every pair stored once
// in its lower id's counter, then pair by pair against the naive
// reference (window 0).
func FuzzProfileExtraction(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 3, 2, 1, 3})
	f.Add([]byte{4, 3, 1, 2, 3, 4, 5, 6, 1, 6, 2, 5, 1, 3})
	f.Add([]byte("extraction merges both counter halves of every pair"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		window := int(data[1]) % 80 // 0 is unbounded; 64 and above never clip
		events := data[2:]
		var opts []Option
		if window > 0 {
			opts = append(opts, WithWindow(window))
		}
		p := NewProfiler("fuzz", "ref", opts...)
		naive := NewNaiveProfiler("fuzz", "ref")
		for i, b := range events {
			pc, taken := uint64(b&63+1)*4, b&64 != 0
			p.Branch(pc, taken, uint64(i))
			naive.Branch(pc, taken, uint64(i))
		}
		got := p.Profile().Pairs
		if cap(got.keys) != got.Len() || cap(got.counts) != got.Len() {
			t.Fatalf("list of %d pairs has capacities %d/%d", got.Len(), cap(got.keys), cap(got.counts))
		}
		gotMap := pairMap(got)
		if len(gotMap) != got.Len() {
			t.Fatalf("list of %d pairs holds %d distinct keys", got.Len(), len(gotMap))
		}
		if want := storedPairs(t, "counters", p.nbr); !maps.Equal(gotMap, want) {
			t.Fatalf("extraction differs from the counters:\n%v\nwant:\n%v", gotMap, want)
		}
		if window != 0 {
			return
		}
		want := naive.Profile().Pairs
		if want.Len() != got.Len() {
			t.Fatalf("extracted %d pairs, naive reference %d", got.Len(), want.Len())
		}
		want.Range(func(k, v uint64) bool {
			if gotMap[k] != v {
				t.Fatalf("pair %#x: extracted %d, naive reference %d", k, gotMap[k], v)
			}
			return true
		})
	})
}

// TestMergeOrderInvariance is the determinism property behind Merge:
// merging profiles in any order yields the same pair counts. Merge
// numbers ids by first appearance, so the canonical dump keys each pair
// by its PCs, and all 120 permutations of five overlapping profiles
// must agree byte for byte.
func TestMergeOrderInvariance(t *testing.T) {
	const k, n = 5, 40
	r := rng.New(99)
	profiles := make([]*Profile, k)
	for i := range profiles {
		// Each profile sees its own subset of the PCs, in its own order.
		p := &Profile{Benchmark: "perm"}
		for _, x := range r.Perm(n)[:n-2*i] {
			p.PCs = append(p.PCs, uint64(x+1)*4)
			p.Exec = append(p.Exec, 1)
			p.Taken = append(p.Taken, 0)
		}
		// Overlapping keyspace: most pairs appear in several profiles.
		var pairs []PairCount
		for j := 0; j < 2000; j++ {
			a, b := int32(r.Intn(len(p.PCs))), int32(r.Intn(len(p.PCs)))
			if a != b {
				pairs = append(pairs, PairCount{A: a, B: b, Count: uint64(r.Intn(9) + 1)})
			}
		}
		p.Pairs = NewPairList(len(p.PCs), pairs)
		profiles[i] = p
	}

	mergeDump := func(order []int) string {
		in := make([]*Profile, len(order))
		for j, i := range order {
			in[j] = profiles[i]
		}
		m, err := Merge(in...)
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, 0, m.Pairs.Len())
		m.Pairs.Range(func(key, v uint64) bool {
			a, b := UnpackPair(key)
			pa, pb := min(m.PCs[a], m.PCs[b]), max(m.PCs[a], m.PCs[b])
			lines = append(lines, fmt.Sprintf("%#x-%#x:%d", pa, pb, v))
			return true
		})
		slices.Sort(lines)
		return strings.Join(lines, "\n")
	}

	var want string
	perms := 0
	var permute func(order []int, n int)
	permute = func(order []int, n int) {
		if n == 1 {
			got := mergeDump(order)
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("merge order %v produced different pair counts", order)
			}
			perms++
			return
		}
		for i := 0; i < n; i++ {
			order[i], order[n-1] = order[n-1], order[i]
			permute(order, n-1)
			order[i], order[n-1] = order[n-1], order[i]
		}
	}
	permute([]int{0, 1, 2, 3, 4}, k)
	if perms != 120 {
		t.Fatalf("checked %d permutations, want 120", perms)
	}
	if want == "" {
		t.Fatal("empty canonical dump")
	}
}
