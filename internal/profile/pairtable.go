package profile

import (
	"math/bits"
	"sync/atomic"
)

// PairCounts is an open-addressed hash table from packed id pairs
// (PairKey) to interleave counts: the accumulator for callers that sum
// duplicate keys — Merge's remapped profiles, grouped analysis, static
// estimates and the naive reference profiler. A finished table freezes
// into the PairList a Profile holds (List); the Profiler itself never
// hashes pairs, since its extraction already yields each pair once.
//
// Key 0 marks an empty slot. PairKey never produces 0: it packs the
// smaller id into the high word and ids in a pair are distinct, so the
// low word (the larger id) is nonzero.
//
// The keys and values live in one backing slab (keys first, values
// second), so a table costs a single allocation and grows without a
// second make. Capacity is exact, not rounded to a power of two: slots
// are selected by multiply-shift range reduction (the "fastrange"
// idiom), so a table sized for n pairs allocates ~4n/3 slots instead
// of up to 8n/3.
//
// Each table hashes with a per-instance seed. This is not paranoia:
// Range yields keys in slot order — i.e. sorted by hash — and feeding
// one table's Range into another table's Add (as Merge does) would,
// under a shared hash function, insert keys in exactly ascending hash
// order. Linear probing degrades to a single ever-growing run under
// that order and the copy turns quadratic; distinct seeds decorrelate
// the orders and keep inserts O(1).
type PairCounts struct {
	slab []uint64
	keys []uint64 // slab[:size]
	vals []uint64 // slab[size:]
	n    int
	seed uint64
}

const (
	pairMinCap   = 1 << 10
	pairMaxLoadN = 3 // grow when n*4 > size*3 (load factor 0.75)
	pairMaxLoadD = 4
)

// pairSeedCounter distinguishes instances; the derived seeds are
// deterministic for a deterministic allocation order, and no observable
// result depends on table layout.
var pairSeedCounter atomic.Uint64

func newPairSeed() uint64 {
	x := pairSeedCounter.Add(1) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewPairCounts returns a table pre-sized for capacityHint entries
// (0 picks a small default). Sizing is exact: the table holds at least
// capacityHint pairs before its first grow.
func NewPairCounts(capacityHint int) *PairCounts {
	size := capacityHint*pairMaxLoadD/pairMaxLoadN + 1
	if size < pairMinCap {
		size = pairMinCap
	}
	t := &PairCounts{seed: newPairSeed()}
	t.alloc(size)
	return t
}

// alloc installs a zeroed slab of the given slot count: one backing
// allocation for both halves.
func (t *PairCounts) alloc(size int) {
	t.slab = make([]uint64, 2*size) //reprolint:allow hotpath single-slab table allocation: construction or amortized doubling, never steady state
	t.keys = t.slab[:size:size]
	t.vals = t.slab[size:]
}

// Len returns the number of distinct pairs stored.
func (t *PairCounts) Len() int { return t.n }

// slot hashes the key into the table: seeded xor, Fibonacci multiply,
// then multiply-shift range reduction onto the exact (not power-of-two)
// slot count. Reduction is monotone in the hash, which keeps grow's
// slot-order rehash a linear, clustering-free pass.
func (t *PairCounts) slot(key uint64) int {
	h := (key ^ t.seed) * 0x9e3779b97f4a7c15
	hi, _ := bits.Mul64(h, uint64(len(t.keys)))
	return int(hi)
}

// Add increments the pair key's count by delta. The load factor is
// checked only when key is new, so an exactly full table keeps taking
// increments to its stored keys without growing.
func (t *PairCounts) Add(key uint64, delta uint64) {
	if key == 0 {
		panic("profile: PairCounts key 0 is reserved")
	}
	i := t.slot(key)
	for k := t.keys[i]; k != 0; k = t.keys[i] {
		if k == key {
			t.vals[i] += delta
			return
		}
		if i++; i == len(t.keys) {
			i = 0
		}
	}
	if (t.n+1)*pairMaxLoadD > len(t.keys)*pairMaxLoadN {
		t.grow() //reprolint:allow hotpath amortized doubling, O(log pairs) times per table
		i = t.slot(key)
		for t.keys[i] != 0 {
			if i++; i == len(t.keys) {
				i = 0
			}
		}
	}
	t.keys[i] = key
	t.vals[i] = delta
	t.n++
}

// Range calls f for every stored pair until f returns false. Iteration
// order is unspecified (it depends on the instance seed); callers
// needing determinism must sort, as SortedPairs does.
func (t *PairCounts) Range(f func(key uint64, count uint64) bool) {
	for i, k := range t.keys {
		if k != 0 {
			if !f(k, t.vals[i]) {
				return
			}
		}
	}
}

// List freezes the table into a PairList: one exactly sized copy of
// the stored pairs, in the table's slot order.
func (t *PairCounts) List() PairList {
	l := PairList{keys: make([]uint64, 0, t.n), counts: make([]uint64, 0, t.n)}
	for i, k := range t.keys {
		if k != 0 {
			l.keys = append(l.keys, k)
			l.counts = append(l.counts, t.vals[i])
		}
	}
	return l
}

// grow doubles the table in one backing allocation. Rehashing iterates
// the old slots in hash order of the *same* seed, and the range
// reduction is monotone, so reinserted keys land in nondecreasing slots
// of the doubled table — a linear, clustering-free pass.
func (t *PairCounts) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.alloc(len(oldKeys) * 2) //reprolint:allow hotpath amortized doubling, O(log pairs) times per table
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := t.slot(k)
		for t.keys[i] != 0 {
			if i++; i == len(t.keys) {
				i = 0
			}
		}
		t.keys[i] = k
		t.vals[i] = oldVals[j]
	}
}
