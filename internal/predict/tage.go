package predict

import (
	"fmt"
	"strings"
)

// TAGE is the TAgged GEometric-history predictor of Seznec & Michaud: a
// bimodal base table backed by a cascade of tagged component tables with
// geometrically increasing history lengths. The longest-history table
// whose tag matches provides the prediction; mispredictions allocate
// entries in longer tables, and 2-bit useful counters arbitrate eviction
// so established correlations survive allocation pressure.
//
// The implementation follows the SupraX Pareto review's "do these" list:
// allocation is attempted in every longer table (not just provider+1),
// victim selection honors the useful bit, up to two tables allocate per
// misprediction (via a small deterministic LFSR — real hardware uses an
// LFSR too, and determinism here is what makes the differential suite
// possible), useful counters age by periodic halving, history folding
// XORs fixed-width segments, and tags mix two PC shifts with folded
// history for extra entropy. Counter and history updates are branchless.
// The folds are kept as Seznec's circular folded-history registers,
// advanced by one bit per update, so a lookup reads them instead of
// re-folding the history.
//
// Like every zoo member, the per-branch PC component is pluggable: the
// conventional variant hashes PC bits (PCModIndexer) while the
// allocated-index variant routes through a core.AllocationMap
// (AllocIndexer), which changes how branches collide in *every* level —
// base, component indexes, and tags.
type TAGE struct {
	indexer Indexer
	base    []Counter2
	tables  [tageTables][]tageEntry
	mask    uint32 // component tables and base share one pow2 size
	idxBits uint
	hist    uint64
	rng     uint16 // deterministic allocation LFSR
	ticks   uint32 // updates since the last useful-bit aging

	// fidx[i] and ftag[i] hold table i's history folded to idxBits and
	// tageTagBits-1 bits; ridx[i] is where the bit leaving table i's
	// history window sits in the index fold. Derived from hist, so they
	// are not part of Snapshot.
	fidx, ftag [tageTables]uint32
	ridx       [tageTables]uint
}

// tageEntry is one tagged component slot: a signed 3-bit prediction
// counter in [-4,3] (>= 0 predicts taken), a partial tag, and a 2-bit
// useful counter guarding it from eviction.
type tageEntry struct {
	tag uint16
	ctr int8
	u   uint8
}

const (
	// tageTables is the number of tagged components above the base.
	tageTables = 4
	// tageTagBits is the partial tag width.
	tageTagBits = 9
	tageTagMask = 1<<tageTagBits - 1
	// tageCtrMin/Max bound the signed 3-bit prediction counter.
	tageCtrMin = -4
	tageCtrMax = 3
	// tageUMax saturates the 2-bit useful counter.
	tageUMax = 3
	// tageAgePeriod is the update count between useful-bit halvings
	// (the periodic reset of the design review, as aging rather than a
	// full clear so hot entries keep part of their protection).
	tageAgePeriod = 1 << 17
	// tageLFSRSeed is the power-on LFSR state. Any nonzero value works;
	// this one is fixed so construction, Flush, and the golden traces
	// agree byte-for-byte.
	tageLFSRSeed = 0xACE1
)

// tageHistLengths are the geometric history lengths of the tagged
// components, shortest first. The zoo's property suite asserts the
// strict monotone growth this file's selection logic relies on.
var tageHistLengths = [tageTables]uint{4, 8, 16, 32}

// tageTagRot is where the bit leaving each component's history window
// sits in its tag fold.
var tageTagRot = func() (rot [tageTables]uint) {
	for i, l := range tageHistLengths {
		rot[i] = l % (tageTagBits - 1)
	}
	return rot
}()

// NewTAGE builds a TAGE whose base and component tables each hold
// entries slots (power of two > 1), with PC components routed through
// ix, which must target at least 1 entry.
func NewTAGE(ix Indexer, entries int) (*TAGE, error) {
	if entries <= 1 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predict: TAGE entries must be a power of two > 1, got %d", entries)
	}
	if err := checkIndexer(ix); err != nil {
		return nil, err
	}
	idxBits := uint(0)
	for 1<<idxBits < entries {
		idxBits++
	}
	t := &TAGE{
		indexer: ix,
		base:    make([]Counter2, entries),
		mask:    uint32(entries - 1),
		idxBits: idxBits,
	}
	for i := range t.tables {
		t.tables[i] = make([]tageEntry, entries)
		t.ridx[i] = tageHistLengths[i] % idxBits
	}
	t.Flush()
	return t, nil
}

// Name implements Predictor.
func (t *TAGE) Name() string {
	return fmt.Sprintf("tage(%s/%d,t=%d)", t.indexer.Name(), len(t.base), tageTables)
}

// fold advances a bits-wide circular folded-history register by one
// history bit: rotate in the new bit and cancel the bit leaving the
// window, which the rotation has carried to position rot = histLen %
// bits. The register always equals the low histLen bits of the history
// XOR-folded in bits-wide segments — the "better hash folding" item of
// the design review, which keeps long-history components sensitive to
// every history position.
func fold(f, in, out uint32, rot, bits uint) uint32 {
	f = f<<1 | in
	f ^= out << rot
	f ^= f >> bits
	return f & (1<<bits - 1)
}

// componentIndex computes table i's slot for the branch whose indexer
// component is pcc.
func (t *TAGE) componentIndex(i int, pcc uint32) uint32 {
	return (pcc ^ t.fidx[i]) & t.mask
}

// componentTag computes table i's partial tag: two PC shifts XOR a
// second, differently-sized history fold, so index-colliding branches
// still disagree in tag.
func (t *TAGE) componentTag(i int, pcc uint32) uint16 {
	return uint16(pcc^(pcc>>2)^t.ftag[i]) & tageTagMask
}

// lookup resolves the current provider: the longest-history component
// with a tag match (provider == -1 means the base table provides), its
// slot, the provider's prediction, and the alternate prediction the
// next-longest matching component (or the base) would have made.
func (t *TAGE) lookup(pcc uint32) (provider int, slot uint32, pred, altpred bool) {
	provider = -1
	basePred := t.base[pcc&t.mask].Taken()
	pred, altpred = basePred, basePred
	for i := 0; i < tageTables; i++ {
		idx := t.componentIndex(i, pcc)
		if t.tables[i][idx].tag == t.componentTag(i, pcc) {
			if provider >= 0 {
				altpred = pred
			}
			provider = i
			slot = idx
			pred = t.tables[i][idx].ctr >= 0
		}
	}
	if provider < 0 {
		slot = pcc & t.mask
	}
	return provider, slot, pred, altpred
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64) bool {
	_, _, pred, _ := t.lookup(uint32(t.indexer.Index(pc)))
	return pred
}

// Update implements Predictor: train the provider, adjust its useful
// counter when it disagreed with the alternate, allocate longer-history
// entries on a misprediction, age the useful bits periodically, shift
// the global history and its folded registers, and return the
// provider's pre-training prediction.
//
//reprolint:hotpath TAGE update loop
func (t *TAGE) Update(pc uint64, taken bool) bool {
	pcc := uint32(t.indexer.Index(pc))
	provider, slot, pred, altpred := t.lookup(pcc)

	if provider >= 0 {
		e := &t.tables[provider][slot]
		// Branchless saturating ±1 on the signed 3-bit counter.
		d := 2*int8(b2i(taken)) - 1
		e.ctr = min(max(e.ctr+d, tageCtrMin), tageCtrMax)
		// The useful counter moves only when the provider and the
		// alternate disagreed — that disagreement is the only evidence
		// the longer history earned (or squandered) its slot.
		if pred != altpred {
			if pred == taken {
				e.u = min(e.u+1, tageUMax)
			} else if e.u > 0 {
				e.u--
			}
		}
	} else {
		t.base[slot] = t.base[slot].Update(taken)
	}

	if pred != taken {
		t.allocate(provider, pcc, taken)
	}

	// Periodic useful aging: halve every useful counter so stale
	// protection decays and new correlations can claim slots.
	t.ticks++
	if t.ticks >= tageAgePeriod {
		t.ticks = 0
		for i := range t.tables {
			tbl := t.tables[i]
			for j := range tbl {
				tbl[j].u >>= 1
			}
		}
	}

	in := b2i(taken)
	for i, l := range tageHistLengths {
		out := uint32(t.hist>>(l-1)) & 1
		t.fidx[i] = fold(t.fidx[i], in, out, t.ridx[i], t.idxBits)
		t.ftag[i] = fold(t.ftag[i], in, out, tageTagRot[i], tageTagBits-1)
	}
	t.hist = (t.hist << 1) | uint64(in)
	return pred
}

// allocate claims entries in tables with longer history than the
// mispredicting provider: the first table whose victim slot has useful
// counter zero, plus — on a deterministic LFSR coin flip — a second such
// table (the review's multi-table allocation). If every candidate is
// protected, their useful counters all decay by one instead, so repeated
// pressure eventually frees a slot.
func (t *TAGE) allocate(provider int, pcc uint32, taken bool) {
	start := provider + 1
	if start >= tageTables {
		return
	}
	budget := 1 + int(t.lfsr()&1)
	allocated := 0
	for i := start; i < tageTables && allocated < budget; i++ {
		idx := t.componentIndex(i, pcc)
		e := &t.tables[i][idx]
		if e.u != 0 {
			continue
		}
		e.tag = t.componentTag(i, pcc)
		e.ctr = int8(b2i(taken)) - 1 // weakly taken (0) or weakly not-taken (-1)
		e.u = 0
		allocated++
	}
	if allocated == 0 {
		for i := start; i < tageTables; i++ {
			idx := t.componentIndex(i, pcc)
			if e := &t.tables[i][idx]; e.u > 0 {
				e.u--
			}
		}
	}
}

// lfsr steps the 16-bit Galois LFSR used for allocation coin flips.
func (t *TAGE) lfsr() uint16 {
	v := t.rng
	t.rng = (t.rng >> 1) ^ (-(t.rng & 1) & 0xB400)
	return v
}

// Flush implements ZooPredictor: power-on state — empty history and
// folded registers, seeded LFSR, WeakTaken base, zeroed components.
func (t *TAGE) Flush() {
	t.hist = 0
	t.fidx = [tageTables]uint32{}
	t.ftag = [tageTables]uint32{}
	t.rng = tageLFSRSeed
	t.ticks = 0
	for i := range t.base {
		t.base[i] = WeakTaken
	}
	for i := range t.tables {
		clear(t.tables[i])
	}
}

// Snapshot implements ZooPredictor: the registers plus every base
// counter and component entry that moved off power-on state.
func (t *TAGE) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tage hist=%#x rng=%#x ticks=%d\n", t.hist, t.rng, t.ticks)
	for i, c := range t.base {
		if c != WeakTaken {
			fmt.Fprintf(&b, "base[%d]=%s\n", i, c)
		}
	}
	for i := range t.tables {
		for j, e := range t.tables[i] {
			if e != (tageEntry{}) {
				fmt.Fprintf(&b, "t%d[%d]=tag:%#x ctr:%d u:%d\n", i, j, e.tag, e.ctr, e.u)
			}
		}
	}
	return b.String()
}
