package predict

import (
	"fmt"
	"strings"
)

// Gshare is McFarling's global-history predictor: the global history
// register XORed with a per-branch table index selects a 2-bit counter,
// spreading branches across patterns. The PC component is pluggable: the
// conventional scheme hashes low-order PC bits (PCModIndexer), and the
// allocated-index variant of the zoo substitutes a compiler-computed
// branch allocation (AllocIndexer), so the paper's allocation machinery
// applies to a history-hashed predictor unchanged.
type Gshare struct {
	indexer Indexer
	hist    uint32
	mask    uint32
	pht     []Counter2
}

// NewGshare builds the conventional gshare with phtEntries counters
// (power of two), PC-modulo indexed — the historical constructor shape.
func NewGshare(phtEntries int) (*Gshare, error) {
	return NewGshareIndexed(PCModIndexer{Entries: phtEntries}, phtEntries)
}

// NewGshareIndexed builds a gshare whose PC component comes from ix.
// phtEntries must be a power of two > 1; ix must produce indexes in
// [0, phtEntries) (out-of-range values are masked) and target at least
// 1 entry.
func NewGshareIndexed(ix Indexer, phtEntries int) (*Gshare, error) {
	if phtEntries <= 1 || phtEntries&(phtEntries-1) != 0 {
		return nil, fmt.Errorf("predict: gshare PHT entries must be a power of two > 1, got %d", phtEntries)
	}
	if err := checkIndexer(ix); err != nil {
		return nil, err
	}
	g := &Gshare{indexer: ix, mask: uint32(phtEntries - 1), pht: make([]Counter2, phtEntries)}
	g.Flush()
	return g, nil
}

// Name implements Predictor.
func (g *Gshare) Name() string {
	if _, ok := g.indexer.(PCModIndexer); ok {
		return fmt.Sprintf("gshare(%d)", len(g.pht))
	}
	return fmt.Sprintf("gshare(%s/%d)", g.indexer.Name(), len(g.pht))
}

// index is the gshare hash: history XOR the indexer's PC component.
func (g *Gshare) index(pc uint64) uint32 {
	return (g.hist ^ uint32(g.indexer.Index(pc))) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool { return g.pht[g.index(pc)].Taken() }

// Update implements Predictor.
//
//reprolint:hotpath gshare update loop
func (g *Gshare) Update(pc uint64, taken bool) bool {
	i := g.index(pc)
	c := g.pht[i]
	g.pht[i] = c.Update(taken)
	g.hist = ((g.hist << 1) | b2i(taken)) & g.mask
	return c.Taken()
}

// Flush implements ZooPredictor: clear the history and re-bias every
// counter to the power-on WeakTaken state.
func (g *Gshare) Flush() {
	g.hist = 0
	for i := range g.pht {
		g.pht[i] = WeakTaken
	}
}

// Snapshot implements ZooPredictor: the history register plus every
// counter that moved off its power-on state, in index order.
func (g *Gshare) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gshare hist=%#x\n", g.hist)
	for i, c := range g.pht {
		if c != WeakTaken {
			fmt.Fprintf(&b, "pht[%d]=%s\n", i, c)
		}
	}
	return b.String()
}
