package predict

import (
	"fmt"
	"slices"

	"repro/internal/isa"
)

// Predictor is a dynamic branch direction predictor. Update is the one
// call per retired conditional branch: it trains on the resolved
// direction and returns the prediction it trained against, so a
// simulator scores and trains with a single table lookup.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc
	// without changing any state.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction and
	// returns exactly what Predict(pc) would have returned just before
	// the call.
	Update(pc uint64, taken bool) bool
	// Name identifies the configuration in reports.
	Name() string
}

// Bimodal is Smith's per-address 2-bit counter predictor; the simplest
// dynamic baseline.
type Bimodal struct {
	table []Counter2
	mask  uint64
}

// NewBimodal builds a bimodal predictor with entries counters (power of
// two).
func NewBimodal(entries int) (*Bimodal, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predict: bimodal entries must be a power of two, got %d", entries)
	}
	t := make([]Counter2, entries)
	for i := range t {
		t[i] = WeakTaken
	}
	return &Bimodal{table: t, mask: uint64(entries - 1)}, nil
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return fmt.Sprintf("bimodal(%d)", len(b.table)) }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[(pc/4)&b.mask].Taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) bool {
	i := (pc / 4) & b.mask
	c := b.table[i]
	b.table[i] = c.Update(taken)
	return c.Taken()
}

// GAg is the global-history two-level predictor: one global shift
// register indexes a PHT of 2-bit counters.
type GAg struct {
	hist uint32
	mask uint32
	pht  []Counter2
}

// NewGAg builds a GAg with phtEntries counters (power of two).
func NewGAg(phtEntries int) (*GAg, error) {
	if phtEntries <= 1 || phtEntries&(phtEntries-1) != 0 {
		return nil, fmt.Errorf("predict: GAg PHT entries must be a power of two > 1, got %d", phtEntries)
	}
	g := &GAg{mask: uint32(phtEntries - 1), pht: make([]Counter2, phtEntries)}
	for i := range g.pht {
		g.pht[i] = WeakTaken
	}
	return g, nil
}

// Name implements Predictor.
func (g *GAg) Name() string { return fmt.Sprintf("GAg(%d)", len(g.pht)) }

// Predict implements Predictor.
func (g *GAg) Predict(pc uint64) bool { return g.pht[g.hist&g.mask].Taken() }

// Update implements Predictor.
func (g *GAg) Update(pc uint64, taken bool) bool {
	i := g.hist & g.mask
	c := g.pht[i]
	g.pht[i] = c.Update(taken)
	g.hist = ((g.hist << 1) | b2i(taken)) & g.mask
	return c.Taken()
}

// AlwaysTaken is the trivial static baseline.
type AlwaysTaken struct{}

// Name implements Predictor.
func (AlwaysTaken) Name() string { return "always-taken" }

// Predict implements Predictor.
func (AlwaysTaken) Predict(uint64) bool { return true }

// Update implements Predictor.
func (AlwaysTaken) Update(uint64, bool) bool { return true }

// pcDirs is a fixed branch → direction table: known holds the
// branches, taken those whose direction is taken.
type pcDirs struct {
	known, taken isa.PCSet
}

func newPCDirs(dirs map[uint64]bool) pcDirs {
	var known, taken []uint64
	for pc, d := range dirs {
		known = append(known, pc)
		if d {
			taken = append(taken, pc)
		}
	}
	slices.Sort(known)
	slices.Sort(taken)
	return pcDirs{known: isa.NewPCSet(known), taken: isa.NewPCSet(taken)}
}

// lookup returns the recorded direction and whether pc is known.
func (b *pcDirs) lookup(pc uint64) (dir, ok bool) {
	if !b.known.Has(pc) {
		return false, false
	}
	return b.taken.Has(pc), true
}

// ProfileStatic predicts each branch's profile-time majority direction —
// the classic profile-guided static predictor (Ball & Larus style, by
// measurement rather than heuristics). Branches unseen at profile time
// default to taken.
type ProfileStatic struct {
	dirs pcDirs
}

// NewProfileStatic builds the predictor from per-branch majority
// directions. The map is flattened at construction; later mutation of
// it does not affect the predictor.
func NewProfileStatic(majorityTaken map[uint64]bool) *ProfileStatic {
	return &ProfileStatic{dirs: newPCDirs(majorityTaken)}
}

// Name implements Predictor.
func (p *ProfileStatic) Name() string { return "profile-static" }

// Predict implements Predictor.
func (p *ProfileStatic) Predict(pc uint64) bool {
	if d, ok := p.dirs.lookup(pc); ok {
		return d
	}
	return true
}

// Update implements Predictor.
func (p *ProfileStatic) Update(pc uint64, _ bool) bool { return p.Predict(pc) }

// HybridBiasedStatic statically predicts highly biased branches (the
// Section 5.2 option "if a target ISA allows, these highly biased
// conditional branches can be statically predicted") and defers all
// other branches to an underlying dynamic predictor, which then never
// sees the biased branches.
type HybridBiasedStatic struct {
	staticDir pcDirs // biased branches and their directions
	dynamic   Predictor
}

// NewHybridBiasedStatic wraps dynamic with static predictions for the
// given biased branches. The map is flattened at construction; later
// mutation of it does not affect the predictor.
func NewHybridBiasedStatic(biased map[uint64]bool, dynamic Predictor) *HybridBiasedStatic {
	return &HybridBiasedStatic{staticDir: newPCDirs(biased), dynamic: dynamic}
}

// Name implements Predictor.
func (h *HybridBiasedStatic) Name() string {
	return fmt.Sprintf("biased-static+%s", h.dynamic.Name())
}

// Predict implements Predictor.
func (h *HybridBiasedStatic) Predict(pc uint64) bool {
	if d, ok := h.staticDir.lookup(pc); ok {
		return d
	}
	return h.dynamic.Predict(pc)
}

// Update implements Predictor.
func (h *HybridBiasedStatic) Update(pc uint64, taken bool) bool {
	if d, ok := h.staticDir.lookup(pc); ok {
		return d
	}
	return h.dynamic.Update(pc, taken)
}
