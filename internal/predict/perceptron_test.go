package predict

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestPerceptronWeightSaturation is the property the 7-bit weight budget
// promises: under any branch stream, every weight stays within
// [perceptronWMin, perceptronWMax]. testing/quick drives arbitrary
// (pc, outcome) streams straight at the update rule.
func TestPerceptronWeightSaturation(t *testing.T) {
	f := func(pcs []uint16, outcomes []bool) bool {
		p, err := NewPerceptron(PCModIndexer{Entries: 8}, 8, 12)
		if err != nil {
			return false
		}
		n := min(len(pcs), len(outcomes))
		for i := 0; i < n; i++ {
			pc := uint64(pcs[i]) * 4
			p.Predict(pc)
			p.Update(pc, outcomes[i])
		}
		for _, w := range p.weights {
			if w < perceptronWMin || w > perceptronWMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPerceptronClampAtRails drives updates from states already at the
// saturation rails and checks the clamp engages exactly — a weight at
// WMax pushed up stays at WMax, one at WMin pushed down stays at WMin,
// while weights pushed inward still move.
func TestPerceptronClampAtRails(t *testing.T) {
	p, err := NewPerceptron(PCModIndexer{Entries: 4}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	row := p.row(0x40)

	// Bias at WMax, history weights at WMin, all-ones history: output is
	// deeply negative, so Update(taken) is a misprediction and trains
	// every weight upward — the bias into its rail.
	row[0] = perceptronWMax
	for i := 1; i < len(row); i++ {
		row[i] = perceptronWMin
	}
	p.hist = ^uint64(0)
	p.Update(0x40, true)
	if row[0] != perceptronWMax {
		t.Fatalf("bias %d after +1 at the rail, want %d", row[0], perceptronWMax)
	}
	for i := 1; i < len(row); i++ {
		if row[i] != perceptronWMin+1 {
			t.Fatalf("weight %d = %d, want %d (inward step blocked?)", i, row[i], perceptronWMin+1)
		}
	}

	// Mirror case: bias at WMin trained downward stays clamped.
	row[0] = perceptronWMin
	for i := 1; i < len(row); i++ {
		row[i] = perceptronWMax
	}
	p.hist = ^uint64(0)
	p.Update(0x40, false)
	if row[0] != perceptronWMin {
		t.Fatalf("bias %d after -1 at the rail, want %d", row[0], perceptronWMin)
	}
	for i := 1; i < len(row); i++ {
		if row[i] != perceptronWMax-1 {
			t.Fatalf("weight %d = %d, want %d", i, row[i], perceptronWMax-1)
		}
	}
}

// TestPerceptronTrainingStopsPastTheta pins the confidence gate: once
// the output margin clears theta on a constantly-taken branch, weights
// freeze well short of the rails (saturation is for conflict, not bias).
func TestPerceptronTrainingStopsPastTheta(t *testing.T) {
	p, err := NewPerceptron(PCModIndexer{Entries: 4}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p.Update(0x40, true)
	}
	row := p.row(0x40)
	out := p.output(row)
	if out <= p.theta {
		t.Fatalf("output %d never cleared theta %d", out, p.theta)
	}
	if out > 2*p.theta {
		t.Fatalf("output %d kept training past the gate (theta %d)", out, p.theta)
	}
	if row[0] == perceptronWMax {
		t.Fatal("bias railed — the theta gate is not engaging")
	}
}

// TestPerceptronLearnsCorrelation: branch B follows branch A — a single
// history bit carries the whole signal, the perceptron's home turf.
func TestPerceptronLearnsCorrelation(t *testing.T) {
	p, err := NewPerceptron(PCModIndexer{Entries: 64}, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	miss, total := 0, 0
	for i := 0; i < 3000; i++ {
		a := r.Bool(0.5)
		p.Update(0x40, a)
		if i > 500 {
			if p.Predict(0x80) != a {
				miss++
			}
			total++
		}
		p.Update(0x80, a)
	}
	if rate := float64(miss) / float64(total); rate > 0.10 {
		t.Fatalf("perceptron missed correlation: %.3f", rate)
	}
}

// TestPerceptronLearnsLinearlySeparableMix: direction is the majority
// vote of the last three outcomes of the same branch — linearly
// separable in history, so training must converge.
func TestPerceptronLearnsLinearlySeparableMix(t *testing.T) {
	p, err := NewPerceptron(PCModIndexer{Entries: 16}, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Period-6 pattern T T T N N T: prediction from 8 bits of history is
	// a linear function (pattern position is decodable from history).
	pattern := []bool{true, true, true, false, false, true}
	miss, total := drive(p, []uint64{0x40}, 2000, func(_ uint64, i int) bool { return pattern[i%len(pattern)] })
	if rate := float64(miss) / float64(total); rate > 0.05 {
		t.Fatalf("perceptron rate %.3f on separable pattern", rate)
	}
}

func TestPerceptronTheta(t *testing.T) {
	// floor(1.93*16 + 14) = 44, the published fit.
	if got := perceptronTheta(16); got != 44 {
		t.Fatalf("theta(16) = %d, want 44", got)
	}
	p, err := NewPerceptron(PCModIndexer{Entries: 4}, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.theta != 44 {
		t.Fatalf("theta = %d", p.theta)
	}
}

func TestPerceptronRejectsBadConfig(t *testing.T) {
	ix := PCModIndexer{Entries: 16}
	for _, rows := range []int{0, 1, 3, 100} {
		if _, err := NewPerceptron(ix, rows, 8); err == nil {
			t.Errorf("rows %d accepted", rows)
		}
	}
	for _, h := range []int{0, -1, 65} {
		if _, err := NewPerceptron(ix, 16, h); err == nil {
			t.Errorf("history %d accepted", h)
		}
	}
}

func TestAbs32(t *testing.T) {
	cases := map[int32]int32{0: 0, 5: 5, -5: 5, -1: 1, 1 << 30: 1 << 30, -(1 << 30): 1 << 30}
	for in, want := range cases {
		if got := abs32(in); got != want {
			t.Errorf("abs32(%d) = %d, want %d", in, got, want)
		}
	}
}
