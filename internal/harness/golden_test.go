package harness

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestSectionGoldens freezes the rendered simulating sections — Figures
// 3 and 4, the predictor zoo, the extended comparison and pipeline
// tables, and the static comparison — at a fixed small scale, serially
// and with a worker pool. A value change that is consistent across
// worker counts fails here, where a serial-vs-parallel comparison alone
// would pass it.
func TestSectionGoldens(t *testing.T) {
	sections := []struct {
		golden string
		run    func(*Suite, io.Writer) error
	}{
		{"figures.golden", func(s *Suite, w io.Writer) error {
			if err := RunFigure(s, w, 3, false); err != nil {
				return err
			}
			return RunFigure(s, w, 4, false)
		}},
		{"zoo.golden", func(s *Suite, w io.Writer) error { return RunZoo(s, w, false) }},
		{"extras.golden", func(s *Suite, w io.Writer) error { return RunExtras(s, w, false) }},
		{"static.golden", func(s *Suite, w io.Writer) error { return RunStatic(s, w, false) }},
	}
	for _, workers := range []int{1, 4} {
		s := NewSuite(Config{Scale: 0.05, Workers: workers})
		for _, sec := range sections {
			t.Run(fmt.Sprintf("%s/workers=%d", strings.TrimSuffix(sec.golden, ".golden"), workers), func(t *testing.T) {
				var b strings.Builder
				if err := sec.run(s, &b); err != nil {
					t.Fatal(err)
				}
				checkHarnessGolden(t, sec.golden, b.String())
			})
		}
	}
}
