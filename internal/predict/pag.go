package predict

import (
	"fmt"
	"math/bits"
	"strings"
)

// PAg is the local-history two-level adaptive predictor of Yeh & Patt:
// a per-address Branch History Table (BHT) of shift registers as the
// first level and a single global Pattern History Table (PHT) of 2-bit
// counters as the second. The paper's baseline is PAg with a 1024-entry
// BHT and 4096-entry PHT (12 bits of local history); branch allocation
// changes only how the BHT is indexed.
type PAg struct {
	indexer  Indexer
	histBits uint
	histMask uint32
	bht      []uint32
	pht      []Counter2
}

// NewPAg builds a PAg predictor. phtEntries must be a power of two; the
// local history length is log2(phtEntries). The BHT size comes from the
// indexer and must be at least 1.
func NewPAg(indexer Indexer, phtEntries int) (*PAg, error) {
	if phtEntries <= 1 || phtEntries&(phtEntries-1) != 0 {
		return nil, fmt.Errorf("predict: PHT entries must be a power of two > 1, got %d", phtEntries)
	}
	if err := checkIndexer(indexer); err != nil {
		return nil, err
	}
	histBits := uint(bits.TrailingZeros(uint(phtEntries)))
	p := &PAg{
		indexer:  indexer,
		histBits: histBits,
		histMask: uint32(phtEntries - 1),
		bht:      make([]uint32, indexer.Size()),
		pht:      make([]Counter2, phtEntries),
	}
	for i := range p.pht {
		p.pht[i] = WeakTaken
	}
	return p, nil
}

// Name implements Predictor.
func (p *PAg) Name() string {
	return fmt.Sprintf("PAg(bht=%s/%d,pht=%d)", p.indexer.Name(), p.indexer.Size(), len(p.pht))
}

func (p *PAg) historyAt(pc uint64) (int, uint32) {
	idx := p.indexer.Index(pc)
	if idx >= len(p.bht) {
		// IdealIndexer grows; extend the BHT to match. Growth is
		// geometric so a stream of first encounters costs amortized
		// O(1) per branch rather than a fresh copy each time.
		n := 2 * len(p.bht)
		if n <= idx {
			n = idx + 1
		}
		grown := make([]uint32, n) //reprolint:allow hotpath amortized geometric BHT growth under the ideal indexer
		copy(grown, p.bht)
		p.bht = grown
	}
	return idx, p.bht[idx] & p.histMask
}

// Predict implements Predictor.
func (p *PAg) Predict(pc uint64) bool {
	_, h := p.historyAt(pc)
	return p.pht[h].Taken()
}

// Update implements Predictor.
func (p *PAg) Update(pc uint64, taken bool) bool {
	idx, h := p.historyAt(pc)
	c := p.pht[h]
	p.pht[h] = c.Update(taken)
	p.bht[idx] = ((p.bht[idx] << 1) | b2i(taken)) & p.histMask
	return c.Taken()
}

// Flush implements ZooPredictor: clear every local history and re-bias
// the pattern counters to power-on WeakTaken. The BHT keeps any growth
// the ideal indexer forced — capacity is structure, not dynamic state.
func (p *PAg) Flush() {
	clear(p.bht)
	for i := range p.pht {
		p.pht[i] = WeakTaken
	}
}

// Snapshot implements ZooPredictor: every nonzero local history and
// every pattern counter off its power-on state, in index order.
func (p *PAg) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pag histbits=%d\n", p.histBits)
	for i, h := range p.bht {
		if h != 0 {
			fmt.Fprintf(&b, "bht[%d]=%#x\n", i, h)
		}
	}
	for i, c := range p.pht {
		if c != WeakTaken {
			fmt.Fprintf(&b, "pht[%d]=%s\n", i, c)
		}
	}
	return b.String()
}
