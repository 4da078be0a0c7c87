package isa

import "testing"

// fuzzPC decodes three fuzz bytes into a PC. The low two bits of op pick
// the class: an aligned PC whose word, shifted by up to 7 bits, lands
// on either side of the flat range; an unaligned PC; an aligned PC at
// or above 4·2^22, past the flat range; or an aligned PC at the top of
// the flat range.
func fuzzPC(op, lo, hi byte) uint64 {
	v := uint64(lo) | uint64(hi)<<8
	switch op % 4 {
	case 0:
		return v << (op >> 2 % 8) * PCBytes
	case 1:
		return v*PCBytes + 1 + uint64(op>>2%3)
	case 2:
		return (maxDenseWords + v) * PCBytes
	default:
		return (maxDenseWords - 1 - v) * PCBytes
	}
}

// FuzzPCIndex drives a PCIndex with interleaved Intern and Lookup calls
// and checks it against a map: ids are dense and assigned in first-seen
// order, Lookup finds exactly the interned PCs, and Len counts them. A
// PCSet of the interned PCs must then hold exactly those PCs.
func FuzzPCIndex(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x00, 0x20, 0x01, 0x00, 0x00, 0x01, 0x00, 0x05, 0x03, 0x00})
	f.Add([]byte{0x1c, 0xff, 0xff, 0x02, 0x00, 0x00, 0x03, 0x00, 0x00, 0x22, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		var x PCIndex
		want := make(map[uint64]int32)
		var interned, probed []uint64
		for ; len(data) >= 3; data = data[3:] {
			pc := fuzzPC(data[0], data[1], data[2])
			probed = append(probed, pc)
			if data[0]&0x20 != 0 {
				id, ok := x.Lookup(pc)
				if wid, wok := want[pc]; ok != wok || (ok && id != wid) {
					t.Fatalf("Lookup(%#x) = %d, %v; want %d, %v", pc, id, ok, wid, wok)
				}
				continue
			}
			wid, seen := want[pc]
			if !seen {
				wid = int32(len(want))
				want[pc] = wid
				interned = append(interned, pc)
			}
			if id := x.Intern(pc); id != wid {
				t.Fatalf("Intern(%#x) = %d, want %d", pc, id, wid)
			}
			if x.Len() != len(want) {
				t.Fatalf("Len = %d after %d distinct PCs", x.Len(), len(want))
			}
		}
		for i, pc := range interned {
			if id, ok := x.Lookup(pc); !ok || id != int32(i) {
				t.Fatalf("Lookup(%#x) = %d, %v at the end, want %d, true", pc, id, ok, i)
			}
		}
		set := NewPCSet(interned)
		for _, pc := range probed {
			if _, in := want[pc]; set.Has(pc) != in {
				t.Fatalf("PCSet.Has(%#x) = %v, want %v", pc, !in, in)
			}
		}
	})
}
