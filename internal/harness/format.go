package harness

import (
	"fmt"
	"strings"
)

// textTable renders rows as an aligned plain-text table.
type textTable struct {
	header []string
	rows   [][]string
}

func newTextTable(header ...string) *textTable {
	return &textTable{header: header}
}

func (t *textTable) add(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *textTable) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// render formats the table as GitHub-flavored markdown when markdown is
// set and as aligned text otherwise.
func (t *textTable) render(markdown bool) string {
	if !markdown {
		return t.String()
	}
	var b strings.Builder
	b.WriteString("| " + strings.Join(t.header, " | ") + " |\n")
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// RenderTable1 formats Table 1 rows; markdown selects GitHub table
// syntax over aligned text.
func RenderTable1(rows []Table1Row, markdown bool) string {
	t := newTextTable("benchmark", "input", "dynamic branches", "analyzed", "coverage", "static", "static analyzed")
	for _, r := range rows {
		t.add(
			r.Benchmark, r.InputSet,
			fmt.Sprintf("%d", r.TotalDynamic),
			fmt.Sprintf("%d", r.AnalyzedDynamic),
			fmt.Sprintf("%.2f%%", 100*r.Coverage),
			fmt.Sprintf("%d", r.StaticTotal),
			fmt.Sprintf("%d", r.StaticAnalyzed),
		)
	}
	return t.render(markdown)
}

// RenderTable2 formats Table 2 rows.
func RenderTable2(rows []Table2Row, markdown bool) string {
	t := newTextTable("benchmark", "working sets", "avg static size", "avg dynamic size", "max set")
	for _, r := range rows {
		sets := fmt.Sprintf("%d", r.NumSets)
		if r.Truncated {
			sets += "+"
		}
		t.add(
			r.Benchmark, sets,
			fmt.Sprintf("%.0f", r.AvgStatic),
			fmt.Sprintf("%.0f", r.AvgDynamic),
			fmt.Sprintf("%d", r.MaxSet),
		)
	}
	out := t.render(markdown)
	for _, r := range rows {
		if r.Truncated {
			out += "\n(+ = clique enumeration budget reached; counts are a lower bound)\n"
			break
		}
	}
	return out
}

// RenderSizeTable formats Table 3/4 rows.
func RenderSizeTable(rows []SizeRow, baseline int, markdown bool) string {
	t := newTextTable("benchmark", "required BHT size",
		fmt.Sprintf("alloc conflicts"), fmt.Sprintf("conventional-%d conflicts", baseline))
	for _, r := range rows {
		t.add(
			r.Label,
			fmt.Sprintf("%d", r.RequiredSize),
			fmt.Sprintf("%d", r.AllocCost),
			fmt.Sprintf("%d", r.BaselineCost),
		)
	}
	return t.render(markdown)
}

// RenderFigure formats a figure as a misprediction-rate table.
func RenderFigure(f *FigureResult, markdown bool) string {
	header := []string{"benchmark", "PAg-conv"}
	for _, size := range f.Sizes {
		header = append(header, fmt.Sprintf("alloc-%d", size))
	}
	header = append(header, "interference-free")
	t := newTextTable(header...)
	addRow := func(r FigureRow) {
		cells := []string{r.Benchmark, fmt.Sprintf("%.4f", r.Conventional)}
		for _, a := range r.Alloc {
			cells = append(cells, fmt.Sprintf("%.4f", a))
		}
		cells = append(cells, fmt.Sprintf("%.4f", r.InterferenceFree))
		t.add(cells...)
	}
	for _, r := range f.Rows {
		addRow(r)
	}
	addRow(f.Average)
	return t.render(markdown)
}

// convAllocRow is one row of a per-kind conv/alloc table: its lead
// cells, then the PC-modulo and allocated rates at each table size.
type convAllocRow struct {
	lead        []string
	conv, alloc []float64
}

// renderConvAllocTables formats one table per predictor kind, headed
// "[kind]": the lead columns, then a conv/alloc column pair per table
// size, over the rows rows(kind) returns.
func renderConvAllocTables(kinds []string, sizes []int, lead []string, rows func(kind string) []convAllocRow, markdown bool) string {
	var out string
	for _, kind := range kinds {
		header := append([]string{}, lead...)
		for _, size := range sizes {
			header = append(header, fmt.Sprintf("conv-%d", size), fmt.Sprintf("alloc-%d", size))
		}
		t := newTextTable(header...)
		for _, r := range rows(kind) {
			cells := append([]string{}, r.lead...)
			for i := range sizes {
				cells = append(cells, fmt.Sprintf("%.4f", r.conv[i]), fmt.Sprintf("%.4f", r.alloc[i]))
			}
			t.add(cells...)
		}
		out += fmt.Sprintf("[%s]\n", kind)
		out += t.render(markdown) + "\n"
	}
	return out
}
