package isa

// Branch PCs are word-aligned instruction addresses (PCOf), so every
// per-branch table in the pipeline translates a PC through its word
// index pc/PCBytes. PCIndex and PCSet are the two shapes of that
// translation: a flat slice over the dense word range, and a map for
// unaligned or far-out PCs, which no VM-generated stream produces but
// synthetic tests and hostile inputs may.

// maxDenseWords bounds the flat range: word addresses below it (16 MiB
// of program text, beyond every generated program) translate with one
// load; anything above falls back to the map, so an adversarial PC
// cannot balloon a table.
const maxDenseWords = 1 << 22

// denseWord returns pc's word index and whether pc is aligned and
// inside the flat range.
func denseWord(pc uint64) (uint64, bool) {
	w := pc / PCBytes
	return w, pc%PCBytes == 0 && w < maxDenseWords
}

// PCIndex assigns dense ids 0, 1, 2, ... to PCs in first-seen order.
// The zero value is an empty index. Not safe for concurrent use.
type PCIndex struct {
	dense []int32 // pc/4 -> id; -1 means unseen
	far   map[uint64]int32
	n     int32
}

// Lookup returns pc's id and whether pc has one.
func (x *PCIndex) Lookup(pc uint64) (int32, bool) {
	if w := pc / PCBytes; pc%PCBytes == 0 && w < uint64(len(x.dense)) {
		id := x.dense[w]
		return id, id >= 0
	}
	id, ok := x.far[pc] //reprolint:allow hotpath cold fallback for unaligned or out-of-range pcs
	return id, ok
}

// Intern returns pc's id, assigning the next one on first sight. The
// flat table grows geometrically, so a run grows it O(log program)
// times.
func (x *PCIndex) Intern(pc uint64) int32 {
	if id, ok := x.Lookup(pc); ok {
		return id
	}
	id := x.n
	x.n++
	w, ok := denseWord(pc)
	if !ok {
		if x.far == nil {
			x.far = make(map[uint64]int32) //reprolint:allow hotpath cold fallback, allocated at most once
		}
		x.far[pc] = id //reprolint:allow hotpath cold fallback, once per unaligned or out-of-range static branch
		return id
	}
	if w >= uint64(len(x.dense)) {
		n := max(2*len(x.dense), int(w)+1, 1024)
		grown := make([]int32, min(n, maxDenseWords)) //reprolint:allow hotpath amortized geometric growth, O(log program) times per run
		for i := copy(grown, x.dense); i < len(grown); i++ {
			grown[i] = -1
		}
		x.dense = grown
	}
	x.dense[w] = id
	return id
}

// Len returns the number of ids assigned.
func (x *PCIndex) Len() int { return int(x.n) }

// PCSet is a fixed set of PCs with a bitset membership test.
type PCSet struct {
	bits []uint64 // bit pc/4 marks a member
	far  map[uint64]struct{}
}

// NewPCSet returns the set of pcs.
func NewPCSet(pcs []uint64) PCSet {
	var s PCSet
	words := 0
	for _, pc := range pcs {
		if w, ok := denseWord(pc); ok {
			words = max(words, int(w/64)+1)
		}
	}
	s.bits = make([]uint64, words)
	for _, pc := range pcs {
		if w, ok := denseWord(pc); ok {
			s.bits[w/64] |= 1 << (w % 64)
			continue
		}
		if s.far == nil {
			s.far = make(map[uint64]struct{})
		}
		s.far[pc] = struct{}{}
	}
	return s
}

// Has reports whether pc is in the set.
func (s *PCSet) Has(pc uint64) bool {
	if w := pc / PCBytes; pc%PCBytes == 0 && w/64 < uint64(len(s.bits)) {
		return s.bits[w/64]>>(w%64)&1 == 1
	}
	_, ok := s.far[pc] //reprolint:allow hotpath cold fallback for unaligned or out-of-range pcs
	return ok
}
