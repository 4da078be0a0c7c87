package graph

import "math"

// ColoringSpec configures Color: K colors, pins and the lowest free
// color, as NewColorer takes them.
type ColoringSpec struct {
	// K is the number of available colors; must be >= 1.
	K int
	// Pinned maps node ids to fixed colors in [0, K).
	Pinned map[int32]int
	// FirstFree is the lowest color unpinned nodes may take.
	FirstFree int
}

// Color colors g once under spec through a fresh Colorer, the shape the
// coloring tests state their cases in.
func (g *Graph) Color(spec ColoringSpec) (Coloring, error) {
	c, err := g.NewColorer(spec.Pinned, spec.FirstFree)
	if err != nil {
		return Coloring{}, err
	}
	col, _, err := c.Color(spec.K, math.MaxUint64)
	return col, err
}
