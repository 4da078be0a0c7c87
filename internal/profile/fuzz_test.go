package profile

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/rng"
)

// FuzzPackedPairTable drives a random insert/merge sequence against the
// packed flat table and checks the result against a reference Go map.
// The input stream is decoded 9 bytes at a time — an 8-byte key and an
// opcode byte that picks the destination table, the delta, and whether
// the key is folded into a small colliding range — so a single input
// exercises probe chains, growth, and the Range-into-Add merge path
// that Merge uses.
func FuzzPackedPairTable(f *testing.F) {
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
		const nTables = 4
		tables := make([]*PairCounts, nTables)
		for i := range tables {
			tables[i] = NewPairCounts(0)
		}
		ref := make(map[uint64]uint64)
		for len(data) >= 9 {
			key := binary.LittleEndian.Uint64(data)
			op := data[8]
			data = data[9:]
			if op&1 == 0 {
				// Fold half the keys into a small range so the same key
				// lands in several tables and merge hits the Add-to-
				// existing path, not just fresh inserts.
				key %= 1 << 14
			}
			if key == 0 {
				key = 1 // key 0 is the empty-slot sentinel
			}
			delta := uint64(op>>4) + 1
			tables[int(op>>1)%nTables].Add(key, delta)
			ref[key] += delta
		}

		// Merge all tables into one the way Merge does: Range on the
		// source, Add on the destination.
		merged := NewPairCounts(0)
		for _, tb := range tables {
			tb.Range(func(k, v uint64) bool {
				merged.Add(k, v)
				return true
			})
		}

		if merged.Len() != len(ref) {
			t.Fatalf("merged Len = %d, reference map has %d keys", merged.Len(), len(ref))
		}
		seen := 0
		merged.Range(func(k, v uint64) bool {
			if ref[k] != v {
				t.Fatalf("merged Range yields %#x:%d, reference has %d", k, v, ref[k])
			}
			seen++
			return true
		})
		if seen != len(ref) {
			t.Fatalf("merged Range visited %d of %d keys", seen, len(ref))
		}
	})
}

// hashedExtraction is the reference merge of a profiler's counter
// halves: every counter entry added to a hash table, so a pair stored
// in both endpoints' counters sums on its second add.
func hashedExtraction(p *Profiler) *PairCounts {
	p.shards.drain()
	out := NewPairCounts(0)
	for id := range p.pcs {
		for _, s := range p.nbrOf(int32(id)).slots {
			if y, c := partner(s); s != 0 {
				out.Add(PairKey(int32(id), y), uint64(c))
			}
		}
	}
	return out
}

// FuzzProfileExtraction decodes the input into a branch stream over at
// most 64 pcs, a scan window and a shard count in {1, 2, 3}, and checks
// the extracted pair list against the hashed merge of the same
// counters, then pair by pair against the naive reference (window 0)
// or, with a window, against the serial profiler in Range order.
func FuzzProfileExtraction(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 3, 2, 1, 3})
	f.Add([]byte{4, 3, 1, 2, 3, 4, 5, 6, 1, 6, 2, 5, 1, 3})
	f.Add([]byte("extraction merges both counter halves of every pair"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		shards := 1 + int(data[0])%3
		window := int(data[1]) % 80 // 0 is unbounded; 64 and above never clip
		events := data[2:]
		var opts []Option
		if window > 0 {
			opts = append(opts, WithWindow(window))
		}
		p := NewProfiler("fuzz", "ref", append(opts, WithShards(shards))...)
		serial := NewProfiler("fuzz", "ref", opts...)
		naive := NewNaiveProfiler("fuzz", "ref")
		for i, b := range events {
			pc, taken := uint64(b&63+1)*4, b&64 != 0
			p.Branch(pc, taken, uint64(i))
			serial.Branch(pc, taken, uint64(i))
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
		if want := pairDump(hashedExtraction(p)); pairDump(got) != want {
			t.Fatalf("bucketed extraction differs from the hashed merge:\n%s\nwant:\n%s", pairDump(got), want)
		}
		if window == 0 {
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
			return
		}
		if want := rangeSeq(serial.Profile().Pairs); rangeSeq(got) != want {
			t.Fatalf("shards=%d window=%d list differs from serial:\n%s\nwant:\n%s", shards, window, rangeSeq(got), want)
		}
	})
}

// TestMergeOrderInvariance is the determinism property behind Merge:
// merging tables in any order yields the identical table. Pair counts are commutative sums, and the canonical dump is
// layout-independent, so all 120 permutations of five overlapping tables
// must agree byte for byte.
func TestMergeOrderInvariance(t *testing.T) {
	const k = 5
	r := rng.New(99)
	tables := make([]*PairCounts, k)
	for i := range tables {
		tables[i] = NewPairCounts(0)
		// Overlapping keyspace: most keys appear in several tables.
		for j := 0; j < 2000; j++ {
			key := uint64(r.Intn(700) + 1)
			tables[i].Add(key, uint64(r.Intn(9)+1))
		}
	}

	mergeDump := func(order []int) string {
		out := NewPairCounts(0)
		for _, i := range order {
			tables[i].Range(func(key, v uint64) bool {
				out.Add(key, v)
				return true
			})
		}
		return pairDump(out)
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
				t.Fatalf("merge order %v produced a different drained table", order)
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

// TestShardDrainOrderInvariance checks the same property one level up:
// profilers whose shard counts force different worker partitions and
// merge orders still drain to identical profiles.
func TestShardDrainOrderInvariance(t *testing.T) {
	var dumps []string
	for _, shards := range []int{1, 2, 3, 5, 8} {
		p := NewProfiler("synth", "ref", WithShards(shards))
		synthStream(20_000, 1234, p)
		prof := p.Profile()
		dumps = append(dumps, fmt.Sprintf("branches=%d\n%s", prof.NumBranches(), pairDump(prof.Pairs)))
		prof.Release()
	}
	for i := 1; i < len(dumps); i++ {
		if dumps[i] != dumps[0] {
			t.Fatalf("drained profile differs between shard configs 0 and %d", i)
		}
	}
}
