package core

import (
	"fmt"
	"sort"

	"repro/internal/classify"
	"repro/internal/graph"
	"repro/internal/profile"
)

// AllocationMap is the compiler's product: a static assignment of branch
// PCs to BHT entries (paper Section 5). Branches absent from the map —
// never profiled, e.g. library code under an unmodified ISA — fall back
// to conventional PC-modulo indexing, as the paper notes they must.
type AllocationMap struct {
	// TableSize is the BHT entry count the map was built for.
	TableSize int
	// Index maps a branch's byte PC to its assigned entry. It is the
	// construction/reporting representation; EntryFor reads a dense
	// flattening built on first use, so Index must not be mutated after
	// simulation starts.
	Index map[uint64]int
	// ReservedTaken and ReservedNotTaken are the entries set aside for
	// biased branches when classification was used; -1 when unused.
	ReservedTaken, ReservedNotTaken int

	// dense flattens Index for the per-event hot path: entry at pc/4,
	// -1 for unallocated. Unaligned or very large PCs (which the VM
	// never emits) stay in Index and take the cold fallback.
	dense  []int32
	sealed bool
}

// allocMaxDenseWords bounds the dense flattening (4 MiB of int32s).
const allocMaxDenseWords = 1 << 22

// seal builds the dense lookup from Index. Allocate calls it; literal-
// constructed maps (tests, external tools) are sealed lazily on the
// first EntryFor.
func (m *AllocationMap) seal() {
	maxW := -1
	for pc := range m.Index { //reprolint:allow hotpath one-time flattening on first lookup, never repeated
		if w := pc >> 2; pc&3 == 0 && w < allocMaxDenseWords {
			if int(w) > maxW {
				maxW = int(w)
			}
		}
	}
	if maxW >= 0 {
		m.dense = make([]int32, maxW+1) //reprolint:allow hotpath one-time flattening on first lookup, never repeated
		for i := range m.dense {
			m.dense[i] = -1
		}
		for pc, e := range m.Index { //reprolint:allow hotpath one-time flattening on first lookup, never repeated
			if w := pc >> 2; pc&3 == 0 && w < allocMaxDenseWords {
				m.dense[w] = int32(e)
			}
		}
	}
	m.sealed = true
}

// EntryFor returns the BHT entry for the branch at pc, falling back to
// PC-modulo indexing for unallocated branches.
func (m *AllocationMap) EntryFor(pc uint64) int {
	if !m.sealed {
		m.seal()
	}
	if w := pc >> 2; pc&3 == 0 && w < uint64(len(m.dense)) {
		if e := m.dense[w]; e >= 0 {
			return int(e)
		}
		return ConventionalIndex(pc, m.TableSize)
	}
	return m.entrySlow(pc)
}

// entrySlow covers unaligned or out-of-range PCs via the map.
func (m *AllocationMap) entrySlow(pc uint64) int {
	if e, ok := m.Index[pc]; ok { //reprolint:allow hotpath cold fallback for unaligned or out-of-range pcs
		return e
	}
	return ConventionalIndex(pc, m.TableSize)
}

// Allocated returns the number of branches with explicit assignments.
func (m *AllocationMap) Allocated() int { return len(m.Index) }

// ConventionalIndex is the baseline hardware mapping: the low-order bits
// of the instruction fetch address (word-aligned PC modulo table size).
func ConventionalIndex(pc uint64, tableSize int) int {
	return int((pc / 4) % uint64(tableSize))
}

// AllocationConfig configures Allocate.
type AllocationConfig struct {
	// TableSize is the BHT entry count to allocate into; must be >= 1
	// (>= 3 with classification: two reserved entries plus at least one
	// free).
	TableSize int
	// Threshold prunes conflict edges, as in analysis; 0 selects
	// DefaultThreshold.
	Threshold uint64
	// UseClassification enables the Section 5.2 refinement: conflicts
	// between same-class highly biased branches are ignored, and biased
	// branches are pinned to two reserved entries.
	UseClassification bool
	// ClassThresholds overrides the 99%/1% bias cutoffs when
	// UseClassification is set; the zero value selects the defaults.
	ClassThresholds classify.Thresholds
}

func (c AllocationConfig) classThresholds() classify.Thresholds {
	if c.ClassThresholds == (classify.Thresholds{}) {
		return classify.Default()
	}
	return c.ClassThresholds
}

// Allocation is the result of one allocation run.
type Allocation struct {
	Map    *AllocationMap
	Config AllocationConfig
	// Graph is the conflict graph the allocator colored (after any
	// classification edge removal).
	Graph *graph.Graph
	// ConflictCost is the summed interleave weight of branch pairs
	// sharing an entry under the allocation.
	ConflictCost uint64
	// Classification is non-nil when classification was used.
	Classification *classify.Classification
}

// Allocate computes a branch allocation for p under cfg.
func Allocate(p *profile.Profile, cfg AllocationConfig) (*Allocation, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	minSize := 1
	if cfg.UseClassification {
		minSize = 3
	}
	if cfg.TableSize < minSize {
		return nil, fmt.Errorf("core: table size %d below minimum %d", cfg.TableSize, minSize)
	}
	threshold := cfg.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}

	g := p.BuildGraph(threshold)
	cls := classificationFor(p, cfg.UseClassification, cfg.classThresholds())

	spec := graph.ColoringSpec{K: cfg.TableSize}
	reservedT, reservedNT := -1, -1
	if cls != nil {
		g = removeSameClassEdges(g, cls)
		spec.Pinned, spec.FirstFree, reservedT, reservedNT = biasedPins(cls)
	}

	coloring, err := g.Color(spec)
	if err != nil {
		return nil, err
	}

	m := &AllocationMap{
		TableSize:        cfg.TableSize,
		Index:            make(map[uint64]int, p.NumBranches()),
		ReservedTaken:    reservedT,
		ReservedNotTaken: reservedNT,
	}
	for id, pc := range p.PCs {
		m.Index[pc] = coloring.Colors[id]
	}
	m.seal()

	return &Allocation{
		Map:            m,
		Config:         cfg,
		Graph:          g,
		ConflictCost:   g.ConflictCost(coloring.Colors),
		Classification: cls,
	}, nil
}

// removeSameClassEdges applies the Section 5.2 refinement: conflicts
// between branches in the same highly biased class are dropped; their
// histories agree anyway.
func removeSameClassEdges(g *graph.Graph, cls *classify.Classification) *graph.Graph {
	return g.Filter(func(u, v int32, _ uint64) bool { return !cls.SameBiasedClass(u, v) })
}

// biasedPins reserves two entries and pins biased branches to them.
func biasedPins(cls *classify.Classification) (pinned map[int32]int, firstFree, reservedT, reservedNT int) {
	reservedT, reservedNT = 0, 1
	pinned = make(map[int32]int)
	firstFree = 2
	for id, c := range cls.Classes {
		switch c {
		case classify.BiasedTaken:
			pinned[int32(id)] = reservedT
		case classify.BiasedNotTaken:
			pinned[int32(id)] = reservedNT
		}
	}
	return pinned, firstFree, reservedT, reservedNT
}

// conventionalCostOn scores the baseline PC-modulo mapping at tableSize
// on an already-built (and classification-pruned) conflict graph.
func conventionalCostOn(g *graph.Graph, p *profile.Profile, tableSize int) uint64 {
	colors := make([]int, p.NumBranches())
	for id, pc := range p.PCs {
		colors[id] = ConventionalIndex(pc, tableSize)
	}
	return g.ConflictCost(colors)
}

// ConventionalCost returns the conflict cost of the baseline PC-modulo
// mapping at tableSize on p's pruned conflict graph — the quantity
// branch allocation must beat (Tables 3 and 4 compare against
// tableSize 1024). When cls is non-nil, same-class biased conflicts are
// ignored for consistency with the classified allocation it is compared
// against.
func ConventionalCost(p *profile.Profile, tableSize int, threshold uint64, cls *classify.Classification) uint64 {
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	g := p.BuildGraph(threshold)
	if cls != nil {
		g = removeSameClassEdges(g, cls)
	}
	return conventionalCostOn(g, p, tableSize)
}

// SizeSearchResult reports a required-BHT-size search (one row of
// Table 3 or Table 4).
type SizeSearchResult struct {
	// RequiredSize is the smallest table size found whose allocated
	// conflict cost is at or below the baseline cost.
	RequiredSize int
	// AllocCost is the allocation's conflict cost at RequiredSize.
	AllocCost uint64
	// BaselineCost is the conventional mapping's cost at BaselineSize.
	BaselineCost uint64
	// BaselineSize is the conventional table size compared against
	// (1024 in the paper).
	BaselineSize int
	// Colorings counts how many allocations the search performed.
	Colorings int
}

// RequiredBHTSize finds the smallest BHT size at which branch allocation
// reduces table conflicts below the conventional baselineSize-entry
// PC-indexed BHT (Section 5.1, Table 3; with cfg.UseClassification,
// Table 4).
//
// The search binary-searches [minSize, baselineSize], then walks
// downward while smaller sizes still qualify. Greedy coloring is not
// proven monotone in the table size, so the binary search alone could
// overshoot; the harness test TestRequiredSizeMatchesExactScan checks
// on every Table 3/4 row, with and without classification, that the
// answer equals an exact upward scan (one Allocate per size from
// minSize).
func RequiredBHTSize(p *profile.Profile, baselineSize int, cfg AllocationConfig) (SizeSearchResult, error) {
	threshold := cfg.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	// Build the conflict graph and classification once: graphs are
	// immutable, and every probed size colors the same pruned graph.
	g := p.BuildGraph(threshold)
	var cls *classify.Classification
	var pinned map[int32]int
	firstFree := 0
	if cfg.UseClassification {
		cls = classify.Classify(p, cfg.classThresholds())
		g = removeSameClassEdges(g, cls)
		pinned, firstFree, _, _ = biasedPins(cls)
	}
	baseline := conventionalCostOn(g, p, baselineSize)

	res := SizeSearchResult{BaselineCost: baseline, BaselineSize: baselineSize}

	minSize := 1
	if cfg.UseClassification {
		minSize = 3
	}
	costAt := func(size int) (uint64, error) {
		coloring, err := g.Color(graph.ColoringSpec{K: size, Pinned: pinned, FirstFree: firstFree})
		if err != nil {
			return 0, err
		}
		res.Colorings++
		return g.ConflictCost(coloring.Colors), nil
	}

	// The baseline cost can be zero (tiny program); any size where the
	// allocator is also conflict-free qualifies.
	lo, hi := minSize, baselineSize
	best := -1
	var bestCost uint64
	for lo <= hi {
		mid := (lo + hi) / 2
		cost, err := costAt(mid)
		if err != nil {
			return res, err
		}
		if cost <= baseline {
			best = mid
			bestCost = cost
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if best == -1 {
		// Even baselineSize entries cannot beat the baseline — possible
		// only if the coloring is worse than PC hashing, which would be
		// a real finding; report baselineSize with its cost.
		cost, err := costAt(baselineSize)
		if err != nil {
			return res, err
		}
		res.RequiredSize = baselineSize
		res.AllocCost = cost
		return res, nil
	}
	// Downward confirmation walk: greedy coloring is not strictly
	// monotone, so sizes just below the binary-search answer may also
	// qualify. Walk down while they do.
	for s := best - 1; s >= minSize; s-- {
		cost, err := costAt(s)
		if err != nil {
			return res, err
		}
		if cost > baseline {
			break
		}
		best = s
		bestCost = cost
	}
	res.RequiredSize = best
	res.AllocCost = bestCost
	return res, nil
}

// EntryLoad describes how many branches share each BHT entry under an
// allocation — a utilization report for DESIGN-level debugging and the
// wsanalyze CLI.
func (m *AllocationMap) EntryLoad() []int {
	load := make([]int, m.TableSize)
	for _, e := range m.Index {
		if e >= 0 && e < m.TableSize {
			load[e]++
		}
	}
	return load
}

// LoadStats summarizes an entry-load distribution: occupied entries and
// the maximum branches per entry.
func (m *AllocationMap) LoadStats() (occupied, maxLoad int) {
	for _, l := range m.EntryLoad() {
		if l > 0 {
			occupied++
		}
		if l > maxLoad {
			maxLoad = l
		}
	}
	return occupied, maxLoad
}

// SortedPCs returns the allocated PCs in ascending order (deterministic
// iteration for reports and tests).
func (m *AllocationMap) SortedPCs() []uint64 {
	pcs := make([]uint64, 0, len(m.Index))
	for pc := range m.Index {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	return pcs
}
