package predict

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
)

// Indexer maps a branch PC to a first-level (BHT) table entry. The
// paper's proposal is precisely a better Indexer: conventional hardware
// hashes low-order PC bits; branch allocation substitutes a
// compiler-computed assignment.
type Indexer interface {
	// Index returns the BHT entry for the branch at pc, in [0, Size()).
	Index(pc uint64) int
	// Size returns the number of BHT entries the indexer targets.
	Size() int
	// Name identifies the indexing scheme in reports.
	Name() string
}

// checkIndexer rejects an indexer that targets no table entries: a
// PCModIndexer over zero entries would divide by zero on its first
// Index, and a negative size cannot size a table.
func checkIndexer(ix Indexer) error {
	if n := ix.Size(); n < 1 {
		return fmt.Errorf("predict: %s indexer must target at least 1 entry, got %d", ix.Name(), n)
	}
	return nil
}

// PCModIndexer is the conventional scheme: word PC modulo table size.
type PCModIndexer struct {
	Entries int
}

// Index implements Indexer.
func (ix PCModIndexer) Index(pc uint64) int { return core.ConventionalIndex(pc, ix.Entries) }

// Size implements Indexer.
func (ix PCModIndexer) Size() int { return ix.Entries }

// Name implements Indexer.
func (ix PCModIndexer) Name() string { return "pc-mod" }

// AllocIndexer indexes through a branch AllocationMap; unallocated
// branches fall back to PC-modulo inside the map.
type AllocIndexer struct {
	Map *core.AllocationMap
}

// Index implements Indexer.
func (ix AllocIndexer) Index(pc uint64) int { return ix.Map.EntryFor(pc) }

// Size implements Indexer.
func (ix AllocIndexer) Size() int { return ix.Map.TableSize }

// Name implements Indexer.
func (ix AllocIndexer) Name() string {
	if ix.Map.ReservedTaken >= 0 {
		return "allocated+class"
	}
	return "allocated"
}

// IdealIndexer gives every static branch a private entry — the
// interference-free reference the paper approximates with a
// 2-million-entry BHT. Entries are assigned on first use in encounter
// order.
type IdealIndexer struct {
	ids isa.PCIndex
}

// NewIdealIndexer returns an empty interference-free indexer.
func NewIdealIndexer() *IdealIndexer {
	return &IdealIndexer{}
}

// Index implements Indexer.
func (ix *IdealIndexer) Index(pc uint64) int {
	if e, ok := ix.ids.Lookup(pc); ok {
		return int(e)
	}
	return int(ix.ids.Intern(pc))
}

// Size implements Indexer. It reports the entries assigned so far plus
// one so callers sizing tables lazily stay in range; PAg grows its BHT
// dynamically under this indexer.
func (ix *IdealIndexer) Size() int { return ix.ids.Len() + 1 }

// Name implements Indexer.
func (ix *IdealIndexer) Name() string { return "interference-free" }
