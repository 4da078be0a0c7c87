package pipeline

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEvaluateBasic(t *testing.T) {
	m := Model{MispredictPenalty: 10, TakenPenalty: 1}
	c := m.Evaluate(1000, 100, 60, 20)
	// 1000 base + 20*10 mispredict + (60-20)*1 taken.
	if c.Cycles != 1000+200+40 {
		t.Fatalf("cycles = %d", c.Cycles)
	}
	if got := c.CPI(); math.Abs(got-1.24) > 1e-12 {
		t.Fatalf("CPI = %v", got)
	}
	if got := c.MPKI(); math.Abs(got-20) > 1e-12 {
		t.Fatalf("MPKI = %v", got)
	}
	if pf := c.PenaltyFraction(); math.Abs(pf-240.0/1240) > 1e-12 {
		t.Fatalf("penalty fraction = %v", pf)
	}
}

func TestEvaluateClampsInsaneInputs(t *testing.T) {
	m := Model{MispredictPenalty: 5}
	c := m.Evaluate(100, 10, 50, 99)
	if c.Taken != 10 || c.Mispredicts != 10 {
		t.Fatalf("clamping failed: %+v", c)
	}
}

func TestPerfectPredictionCostsBase(t *testing.T) {
	m := Model{MispredictPenalty: 5} // no taken penalty
	c := m.Evaluate(5000, 1000, 700, 0)
	if c.Cycles != 5000 {
		t.Fatalf("cycles = %d, want base 5000", c.Cycles)
	}
	if c.CPI() != 1 {
		t.Fatalf("CPI = %v", c.CPI())
	}
}

func TestDeepPipelineHurtsMore(t *testing.T) {
	shallow := Model{MispredictPenalty: 5}.Evaluate(10000, 1000, 600, 100)
	deep := Deep().Evaluate(10000, 1000, 600, 100)
	if deep.Cycles <= shallow.Cycles {
		t.Fatalf("deep (%d) not costlier than shallow (%d)", deep.Cycles, shallow.Cycles)
	}
}

func TestSpeedup(t *testing.T) {
	m := Model{MispredictPenalty: 5}
	worse := m.Evaluate(1000, 100, 50, 40)
	better := m.Evaluate(1000, 100, 50, 10)
	s := Speedup(worse, better)
	if s <= 1 {
		t.Fatalf("speedup %v, want > 1", s)
	}
	if Speedup(worse, Cost{}) != 0 {
		t.Fatal("zero-cycle divisor not guarded")
	}
}

func TestZeroInstructionMetrics(t *testing.T) {
	var c Cost
	if c.CPI() != 0 || c.MPKI() != 0 || c.PenaltyFraction() != 0 {
		t.Fatal("zero cost produced nonzero metrics")
	}
}

func TestStringMentionsCPI(t *testing.T) {
	c := Model{MispredictPenalty: 5}.Evaluate(1000, 100, 50, 10)
	if !strings.Contains(c.String(), "CPI") {
		t.Fatalf("String() = %q", c.String())
	}
}

func TestMonotoneInMispredicts(t *testing.T) {
	m := Deep()
	f := func(a, b uint16) bool {
		x, y := uint64(a)%500, uint64(b)%500
		if x > y {
			x, y = y, x
		}
		cx := m.Evaluate(100000, 500, 300, x)
		cy := m.Evaluate(100000, 500, 300, y)
		return cx.Cycles <= cy.Cycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
