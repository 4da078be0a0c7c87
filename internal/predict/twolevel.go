package predict

import "fmt"

// This file holds the extended comparisons' schemes beyond the paper's
// PAg baseline (pag.go): GAs from the Yeh & Patt two-level taxonomy
// (global history, per-set pattern tables), and the agree and combining
// predictors from the related work on hardware anti-interference.

// GAs is a global-history two-level predictor whose second level is
// divided into per-set pattern tables selected by PC bits, reducing PHT
// interference relative to GAg at equal total capacity.
type GAs struct {
	hist     uint32
	histMask uint32
	sets     []([]Counter2)
	setMask  uint64
}

// NewGAs builds a GAs with sets per-set pattern tables of phtEntries
// counters each (both powers of two).
func NewGAs(sets, phtEntries int) (*GAs, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("predict: GAs sets must be a power of two, got %d", sets)
	}
	if phtEntries <= 1 || phtEntries&(phtEntries-1) != 0 {
		return nil, fmt.Errorf("predict: GAs PHT entries must be a power of two > 1, got %d", phtEntries)
	}
	g := &GAs{
		histMask: uint32(phtEntries - 1),
		sets:     make([][]Counter2, sets),
		setMask:  uint64(sets - 1),
	}
	for i := range g.sets {
		t := make([]Counter2, phtEntries)
		for j := range t {
			t[j] = WeakTaken
		}
		g.sets[i] = t
	}
	return g, nil
}

// Name implements Predictor.
func (g *GAs) Name() string {
	return fmt.Sprintf("GAs(%dx%d)", len(g.sets), len(g.sets[0]))
}

func (g *GAs) table(pc uint64) []Counter2 { return g.sets[(pc/4)&g.setMask] }

// Predict implements Predictor.
func (g *GAs) Predict(pc uint64) bool {
	return g.table(pc)[g.hist&g.histMask].Taken()
}

// Update implements Predictor.
func (g *GAs) Update(pc uint64, taken bool) bool {
	t := g.table(pc)
	i := g.hist & g.histMask
	c := t[i]
	t[i] = c.Update(taken)
	g.hist = ((g.hist << 1) | b2i(taken)) & g.histMask
	return c.Taken()
}

// Agree implements the agree predictor of Sprangle et al. (ISCA 1997),
// one of the hardware anti-interference schemes the paper positions
// branch allocation against: each branch carries a biasing bit (set to
// its first observed outcome), and the shared PHT counters learn
// whether the branch *agrees* with its bias. Two branches aliasing the
// same counter interfere constructively as long as both mostly agree
// with their own biases, turning negative interference positive.
type Agree struct {
	hist     uint32
	mask     uint32
	pht      []Counter2
	biasSet  []bool
	bias     []bool
	biasMask uint64
}

// NewAgree builds an agree predictor with phtEntries counters and
// biasEntries biasing bits (both powers of two).
func NewAgree(phtEntries, biasEntries int) (*Agree, error) {
	if phtEntries <= 1 || phtEntries&(phtEntries-1) != 0 {
		return nil, fmt.Errorf("predict: agree PHT entries must be a power of two > 1, got %d", phtEntries)
	}
	if biasEntries <= 0 || biasEntries&(biasEntries-1) != 0 {
		return nil, fmt.Errorf("predict: agree bias entries must be a power of two, got %d", biasEntries)
	}
	a := &Agree{
		mask:     uint32(phtEntries - 1),
		pht:      make([]Counter2, phtEntries),
		biasSet:  make([]bool, biasEntries),
		bias:     make([]bool, biasEntries),
		biasMask: uint64(biasEntries - 1),
	}
	for i := range a.pht {
		a.pht[i] = WeakTaken // weakly "agree"
	}
	return a, nil
}

// Name implements Predictor.
func (a *Agree) Name() string {
	return fmt.Sprintf("agree(%d,bias=%d)", len(a.pht), len(a.biasSet))
}

func (a *Agree) index(pc uint64) uint32 { return (a.hist ^ uint32(pc/4)) & a.mask }

func (a *Agree) biasOf(pc uint64) (bool, bool) {
	i := (pc / 4) & a.biasMask
	return a.bias[i], a.biasSet[i]
}

// Predict implements Predictor.
func (a *Agree) Predict(pc uint64) bool {
	bias, ok := a.biasOf(pc)
	if !ok {
		return true // no bias yet: static taken
	}
	agree := a.pht[a.index(pc)].Taken()
	return bias == agree
}

// Update implements Predictor. The prediction is taken before the
// first encounter sets the biasing bit, so it matches Predict.
func (a *Agree) Update(pc uint64, taken bool) bool {
	bi := (pc / 4) & a.biasMask
	i := a.index(pc)
	pred := !a.biasSet[bi] || a.bias[bi] == a.pht[i].Taken()
	if !a.biasSet[bi] {
		// First encounter sets the biasing bit, as in the paper's
		// "bias bit set on first execution" scheme.
		a.biasSet[bi] = true
		a.bias[bi] = taken
	}
	agrees := taken == a.bias[bi]
	a.pht[i] = a.pht[i].Update(agrees)
	a.hist = ((a.hist << 1) | b2i(taken)) & a.mask
	return pred
}

// Combining is McFarling's tournament predictor: two component
// predictors and a per-address selector table of 2-bit counters that
// learns which component to trust for each branch.
type Combining struct {
	a, b     Predictor
	selector []Counter2 // taken-side = use component a
	mask     uint64
}

// NewCombining builds a tournament over components a and b with
// selectorEntries selector counters (a power of two).
func NewCombining(a, b Predictor, selectorEntries int) (*Combining, error) {
	if selectorEntries <= 0 || selectorEntries&(selectorEntries-1) != 0 {
		return nil, fmt.Errorf("predict: selector entries must be a power of two, got %d", selectorEntries)
	}
	c := &Combining{
		a:        a,
		b:        b,
		selector: make([]Counter2, selectorEntries),
		mask:     uint64(selectorEntries - 1),
	}
	for i := range c.selector {
		c.selector[i] = WeakTaken
	}
	return c, nil
}

// Name implements Predictor.
func (c *Combining) Name() string {
	return fmt.Sprintf("combining(%s,%s,sel=%d)", c.a.Name(), c.b.Name(), len(c.selector))
}

func (c *Combining) sel(pc uint64) uint64 { return (pc / 4) & c.mask }

// Predict implements Predictor.
func (c *Combining) Predict(pc uint64) bool {
	if c.selector[c.sel(pc)].Taken() {
		return c.a.Predict(pc)
	}
	return c.b.Predict(pc)
}

// Update implements Predictor: the selector's choice is read before
// the selector trains, and each component's Update supplies the
// prediction it made.
func (c *Combining) Update(pc uint64, taken bool) bool {
	i := c.sel(pc)
	useA := c.selector[i].Taken()
	pa := c.a.Update(pc, taken)
	pb := c.b.Update(pc, taken)
	if pa != pb {
		c.selector[i] = c.selector[i].Update(pa == taken)
	}
	if useA {
		return pa
	}
	return pb
}
