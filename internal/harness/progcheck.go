package harness

import (
	"fmt"
	"io"

	"repro/internal/progcheck"
	"repro/internal/program"
	"repro/internal/workload"
)

// This file connects the static program verifier (package progcheck)
// to the experiment pipeline: Config.ProgCheck gates every compiled
// program on error-severity findings before it runs, and the graph
// experiment gains a static-verification table reporting, per kernel
// variant, how its branch sites decompose into latch / exit / guard /
// resolved / dead / data-dependent classes — the compile-time view of
// the branchy-vs-avoiding gap the dynamic tables measure.

// verifyProgram runs the verifier over one compiled program. Error
// findings (provable out-of-bounds accesses) fail the run; everything
// else is reported through Progress. The report is returned so callers
// can reuse the proven facts.
func (s *Suite) verifyProgram(name string, p *program.Program) (*progcheck.Report, error) {
	span := s.stageSpan(name, "progcheck")
	r := progcheck.Check(p)
	span.End()
	errs := 0
	for _, f := range r.Findings {
		if f.Severity == progcheck.SevError {
			errs++
			s.progressf("progcheck %s: %s", name, f.String())
		}
	}
	if errs > 0 {
		return nil, fmt.Errorf("harness: progcheck %s: %d error findings", name, errs)
	}
	sum := r.Summary()
	s.progressf("progcheck %s: ok (%d findings; %d sites: %d resolved, %d dead, %d data-dependent)",
		name, len(r.Findings), sum.Sites, sum.Resolved, sum.Dead, sum.Data)
	return r, nil
}

// GraphVerifyRow is one graph kernel variant's static branch-site
// classification.
type GraphVerifyRow struct {
	// Benchmark is the kernel×generator pair name, Variant "branchy" or
	// "avoiding".
	Benchmark string
	Variant   string
	// Summary is the verifier's branch-site classification.
	Summary progcheck.BranchSummary
	// Findings counts the verifier findings by severity.
	Errors, Warns, Infos int
}

// GraphVerification statically verifies every graph kernel at the
// suite's scale and classifies its branch sites. Programs come from
// the graph artifact cache when the experiment already ran; otherwise
// they are built (but not executed) here.
func (s *Suite) GraphVerification() ([]GraphVerifyRow, error) {
	var rows []GraphVerifyRow
	for _, pair := range workload.GraphPairNames() {
		for _, suffix := range []string{"", "-ba"} {
			name := pair + suffix
			var p *program.Program
			if a, ok := s.GraphCached(name); ok {
				p = a.Program
			} else {
				spec, err := workload.GraphByName(name)
				if err != nil {
					return nil, err
				}
				if p, err = spec.Build(s.cfg.Scale); err != nil {
					return nil, fmt.Errorf("harness: building graph %s: %w", name, err)
				}
			}
			r := progcheck.Check(p)
			row := GraphVerifyRow{Benchmark: pair, Variant: "branchy", Summary: r.Summary()}
			if suffix != "" {
				row.Variant = "avoiding"
			}
			for _, f := range r.Findings {
				switch f.Severity {
				case progcheck.SevError:
					row.Errors++
				case progcheck.SevWarn:
					row.Warns++
				default:
					row.Infos++
				}
			}
			if row.Errors > 0 {
				return nil, fmt.Errorf("harness: progcheck graph %s: %d error findings", name, row.Errors)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderGraphVerification formats the static-verification table.
func RenderGraphVerification(rows []GraphVerifyRow, markdown bool) string {
	t := newTextTable("benchmark", "variant", "sites", "latch", "exit", "guard",
		"resolved", "dead", "data-dep", "findings")
	for _, r := range rows {
		s := r.Summary
		t.add(r.Benchmark, r.Variant,
			fmt.Sprintf("%d", s.Sites), fmt.Sprintf("%d", s.Latch),
			fmt.Sprintf("%d", s.Exit), fmt.Sprintf("%d", s.Guard),
			fmt.Sprintf("%d", s.Resolved), fmt.Sprintf("%d", s.Dead),
			fmt.Sprintf("%d", s.Data),
			fmt.Sprintf("%dw/%di", r.Warns, r.Infos))
	}
	return t.render(markdown)
}

// RunGraphVerification renders the graph static-verification section.
func RunGraphVerification(s *Suite, w io.Writer, markdown bool) error {
	rows, err := s.GraphVerification()
	if err != nil {
		return err
	}
	section(w, "Static verification: branch-site classes per graph kernel (package progcheck)")
	_, _ = io.WriteString(w, RenderGraphVerification(rows, markdown))
	return nil
}
