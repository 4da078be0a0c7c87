package core

import (
	"fmt"
	"math"

	"repro/internal/classify"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/profile"
)

// AllocationMap is the compiler's product: a static assignment of branch
// PCs to BHT entries (paper Section 5). Branches absent from the map —
// never profiled, e.g. library code under an unmodified ISA — fall back
// to conventional PC-modulo indexing, as the paper notes they must.
//
// A map is one flat table, built once by NewAllocationMap and never
// changed after: the predictors simulate and the verifier checks the
// same entries.
type AllocationMap struct {
	// TableSize is the BHT entry count the map was built for.
	TableSize int
	// ReservedTaken and ReservedNotTaken are the entries set aside for
	// biased branches when classification was used; -1 when unused.
	ReservedTaken, ReservedNotTaken int

	// ids numbers the allocated pcs densely: the branch with id i is at
	// pcs[i] and assigned entries[i].
	ids     isa.PCIndex
	pcs     []uint64
	entries []int32
}

// NewAllocationMap assigns entries[i] to the branch at pcs[i] in a
// tableSize-entry BHT. A pc listed twice keeps its last entry. It
// panics if pcs and entries differ in length.
func NewAllocationMap(tableSize int, pcs []uint64, entries []int, reservedTaken, reservedNotTaken int) *AllocationMap {
	if len(pcs) != len(entries) {
		panic(fmt.Sprintf("core: %d pcs but %d entries", len(pcs), len(entries)))
	}
	m := &AllocationMap{
		TableSize:        tableSize,
		ReservedTaken:    reservedTaken,
		ReservedNotTaken: reservedNotTaken,
		pcs:              make([]uint64, 0, len(pcs)),
		entries:          make([]int32, 0, len(pcs)),
	}
	for i, pc := range pcs {
		id := m.ids.Intern(pc)
		if int(id) == len(m.pcs) {
			m.pcs = append(m.pcs, pc)
			m.entries = append(m.entries, 0)
		}
		m.entries[id] = int32(entries[i])
	}
	return m
}

// Entry returns the entry assigned to the branch at pc, and false if pc
// has no assignment.
func (m *AllocationMap) Entry(pc uint64) (int, bool) {
	if id, ok := m.ids.Lookup(pc); ok {
		return int(m.entries[id]), true
	}
	return 0, false
}

// EntryFor returns the BHT entry for the branch at pc, falling back to
// PC-modulo indexing for unallocated branches.
func (m *AllocationMap) EntryFor(pc uint64) int {
	if e, ok := m.Entry(pc); ok {
		return e
	}
	return ConventionalIndex(pc, m.TableSize)
}

// PCs returns the allocated PCs in the order the map was built (profile
// id order for Allocate). The slice is the map's own; callers must not
// modify it.
func (m *AllocationMap) PCs() []uint64 { return m.pcs }

// Allocated returns the number of branches with explicit assignments.
func (m *AllocationMap) Allocated() int { return len(m.pcs) }

// LoadStats summarizes how many branches share each BHT entry: the
// occupied entries and the most branches in one entry.
func (m *AllocationMap) LoadStats() (occupied, maxLoad int) {
	load := make([]int, m.TableSize)
	for _, e := range m.entries {
		if e < 0 || int(e) >= m.TableSize {
			continue
		}
		if load[e]++; load[e] == 1 {
			occupied++
		}
		maxLoad = max(maxLoad, load[e])
	}
	return occupied, maxLoad
}

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
	// UseClassification enables the Section 5.2 refinement at the
	// paper's 99%/1% bias cutoffs: conflicts between same-class highly
	// biased branches are ignored, and biased branches are pinned to
	// two reserved entries.
	UseClassification bool
}

// minSize is the smallest table an allocation fits: with
// classification, two reserved entries plus one free.
func (c AllocationConfig) minSize() int {
	if c.UseClassification {
		return 3
	}
	return 1
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

// problem is the setup every allocation entry point shares: the pruned
// conflict graph and, with classification (Section 5.2), the branch
// classes, the graph without same-class biased conflicts (their
// histories agree anyway), and the biased branches pinned to two
// reserved entries.
type problem struct {
	p                               *profile.Profile
	cfg                             AllocationConfig
	graph                           *graph.Graph
	cls                             *classify.Classification // nil without classification
	pinned                          map[int32]int
	firstFree                       int
	reservedTaken, reservedNotTaken int // -1 without classification
}

func newProblem(p *profile.Profile, cfg AllocationConfig) (*problem, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	threshold := cfg.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	pr := &problem{p: p, cfg: cfg, graph: p.BuildGraph(threshold), reservedTaken: -1, reservedNotTaken: -1}
	if !cfg.UseClassification {
		return pr, nil
	}
	cls := classify.Classify(p, classify.Default())
	pr.cls = cls
	pr.graph = pr.graph.Filter(func(u, v int32, _ uint64) bool { return !cls.SameBiasedClass(u, v) })
	pr.reservedTaken, pr.reservedNotTaken, pr.firstFree = 0, 1, 2
	pr.pinned = make(map[int32]int)
	for id, c := range cls.Classes {
		switch c {
		case classify.BiasedTaken:
			pr.pinned[int32(id)] = pr.reservedTaken
		case classify.BiasedNotTaken:
			pr.pinned[int32(id)] = pr.reservedNotTaken
		}
	}
	return pr, nil
}

// conventionalCost scores the baseline PC-modulo mapping at tableSize
// on the problem's graph.
func (pr *problem) conventionalCost(tableSize int) uint64 {
	colors := make([]int, pr.p.NumBranches())
	for id, pc := range pr.p.PCs {
		colors[id] = ConventionalIndex(pc, tableSize)
	}
	return pr.graph.ConflictCost(colors)
}

// allocation packages colors (one entry per profile branch id, costing
// cost) as the allocation into size entries.
func (pr *problem) allocation(size int, colors []int, cost uint64) *Allocation {
	cfg := pr.cfg
	cfg.TableSize = size
	return &Allocation{
		Map:            NewAllocationMap(size, pr.p.PCs, colors, pr.reservedTaken, pr.reservedNotTaken),
		Config:         cfg,
		Graph:          pr.graph,
		ConflictCost:   cost,
		Classification: pr.cls,
	}
}

// Allocate computes a branch allocation for p under cfg.
func Allocate(p *profile.Profile, cfg AllocationConfig) (*Allocation, error) {
	if minSize := cfg.minSize(); cfg.TableSize < minSize {
		return nil, fmt.Errorf("core: table size %d below minimum %d", cfg.TableSize, minSize)
	}
	pr, err := newProblem(p, cfg)
	if err != nil {
		return nil, err
	}
	colorer, err := pr.graph.NewColorer(pr.pinned, pr.firstFree)
	if err != nil {
		return nil, err
	}
	coloring, _, err := colorer.Color(cfg.TableSize, math.MaxUint64)
	if err != nil {
		return nil, err
	}
	return pr.allocation(cfg.TableSize, coloring.Colors, coloring.Cost), nil
}

// ConventionalCost returns the conflict cost of the baseline PC-modulo
// mapping at tableSize on the conflict graph an allocation under cfg
// colors — the quantity branch allocation must beat (Tables 3 and 4
// compare against tableSize 1024). With cfg.UseClassification,
// same-class biased conflicts are ignored, as the classified allocation
// ignores them; cfg.TableSize is not used. tableSize must be at least 1.
func ConventionalCost(p *profile.Profile, tableSize int, cfg AllocationConfig) (uint64, error) {
	if tableSize < 1 {
		return 0, fmt.Errorf("core: conventional table size %d below minimum 1", tableSize)
	}
	pr, err := newProblem(p, cfg)
	if err != nil {
		return 0, err
	}
	return pr.conventionalCost(tableSize), nil
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
	// Colorings counts how many sizes the search colored, including
	// probes it stopped early once their cost passed the baseline.
	Colorings int
	// Allocation is the allocation the search accepted at RequiredSize:
	// the one Allocate returns at that size.
	Allocation *Allocation
}

// RequiredBHTSize finds the smallest BHT size at which branch allocation
// reduces table conflicts below the conventional baselineSize-entry
// PC-indexed BHT (Section 5.1, Table 3; with cfg.UseClassification,
// Table 4). cfg.TableSize is not used.
//
// The search binary-searches [minSize, baselineSize], then walks
// downward while smaller sizes still qualify. Every probe shares one
// graph.Colorer and stops as soon as its running conflict cost passes
// the baseline cost, which decides it: it does not qualify. Greedy
// coloring is not proven monotone in the table size, so the binary
// search alone could overshoot; the harness test TestRequiredSizeMatchesExactScan checks
// on every Table 3/4 row, with and without classification, that the
// answer equals an exact upward scan (one Allocate per size from
// minSize).
func RequiredBHTSize(p *profile.Profile, baselineSize int, cfg AllocationConfig) (SizeSearchResult, error) {
	minSize := cfg.minSize()
	if baselineSize < minSize {
		return SizeSearchResult{}, fmt.Errorf("core: baseline size %d below minimum %d", baselineSize, minSize)
	}
	// Every probed size colors the same pruned graph.
	pr, err := newProblem(p, cfg)
	if err != nil {
		return SizeSearchResult{}, err
	}
	baseline := pr.conventionalCost(baselineSize)

	res := SizeSearchResult{BaselineCost: baseline, BaselineSize: baselineSize}

	colorer, err := pr.graph.NewColorer(pr.pinned, pr.firstFree)
	if err != nil {
		return res, err
	}
	// costAt colors size and returns its cost and whether it is within
	// limit. It stops once the cost passes limit, so the cost is exact
	// only when within; then it keeps a copy of the colors, so the last
	// accepted probe's colors are at hand when the search ends.
	var accepted []int
	costAt := func(size int, limit uint64) (uint64, bool, error) {
		coloring, within, err := colorer.Color(size, limit)
		if err != nil {
			return 0, false, err
		}
		res.Colorings++
		if within {
			accepted = append(accepted[:0], coloring.Colors...)
		}
		return coloring.Cost, within, nil
	}

	// The baseline cost can be zero (tiny program); any size where the
	// allocator is also conflict-free qualifies.
	lo, hi := minSize, baselineSize
	best := -1
	var bestCost uint64
	for lo <= hi {
		mid := (lo + hi) / 2
		cost, within, err := costAt(mid, baseline)
		if err != nil {
			return res, err
		}
		if within {
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
		cost, _, err := costAt(baselineSize, math.MaxUint64)
		if err != nil {
			return res, err
		}
		best, bestCost = baselineSize, cost
	} else {
		// Downward confirmation walk: greedy coloring is not strictly
		// monotone, so sizes just below the binary-search answer may
		// also qualify. Walk down while they do.
		for s := best - 1; s >= minSize; s-- {
			cost, within, err := costAt(s, baseline)
			if err != nil {
				return res, err
			}
			if !within {
				break
			}
			best = s
			bestCost = cost
		}
	}
	res.RequiredSize = best
	res.AllocCost = bestCost
	res.Allocation = pr.allocation(best, accepted, bestCost)
	return res, nil
}
