package predict

import (
	"strings"
	"testing"
)

func TestGAsLearnsPattern(t *testing.T) {
	g, err := NewGAs(4, 256)
	if err != nil {
		t.Fatal(err)
	}
	miss, total := drive(g, []uint64{4}, 1000, func(_ uint64, i int) bool { return i%3 != 0 })
	if rate := float64(miss) / float64(total); rate > 0.10 {
		t.Fatalf("GAs rate %.3f", rate)
	}
	if !strings.Contains(g.Name(), "GAs") {
		t.Fatalf("name %q", g.Name())
	}
}

func TestGAsSetPartitioningReducesInterference(t *testing.T) {
	// A constant branch irregularly interleaved with a data-dependent
	// one: under GAg the random branch trains the same pattern counters
	// the constant branch reads (they share every history value), so
	// the constant branch mispredicts; GAs separates them by PC set and
	// the constant branch's counters see only its own outcomes.
	constant := uint64(4)
	random := uint64(8) // different set under GAs(2, ...)
	var stream []event
	for i := 0; i < 4000; i++ {
		stream = append(stream, event{constant, true})
		reps := int(uint(hashCode(random, i)) % 3)
		for r := 0; r < reps; r++ {
			stream = append(stream, event{random, hashBit(random+uint64(r*8), i)})
		}
	}

	gag, err := NewGAg(64)
	if err != nil {
		t.Fatal(err)
	}
	gas, err := NewGAs(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	rateGAg := runStream(gag, stream, constant)
	rateGAs := runStream(gas, stream, constant)
	if rateGAs > 0.02 {
		t.Fatalf("GAs rate %.3f on a constant branch", rateGAs)
	}
	if rateGAg < rateGAs+0.03 {
		t.Fatalf("set partitioning showed no benefit: GAg %.3f vs GAs %.3f", rateGAg, rateGAs)
	}
}

func TestGAsRejectsBadSizes(t *testing.T) {
	if _, err := NewGAs(3, 64); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := NewGAs(4, 1); err == nil {
		t.Error("PHT size 1 accepted")
	}
}

func TestAgreeBasicPrediction(t *testing.T) {
	a, err := NewAgree(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	// A strongly biased branch: the bias bit captures it on first
	// execution; the counters keep agreeing.
	miss, total := drive(a, []uint64{4}, 1000, func(_ uint64, _ int) bool { return true })
	if rate := float64(miss) / float64(total); rate > 0.01 {
		t.Fatalf("agree rate %.3f on constant branch", rate)
	}
	if !strings.Contains(a.Name(), "agree") {
		t.Fatalf("name %q", a.Name())
	}
}

func TestAgreeConvertsNegativeInterference(t *testing.T) {
	// Many opposite-direction biased branches share a small gshare PHT:
	// counters alias between taken-biased and not-taken-biased branches
	// and fight (negative interference). The agree predictor stores a
	// per-branch bias bit and the shared counters all learn the same
	// thing — "agrees with its bias" — so the interference turns
	// positive. This is the Sprangle mechanism the paper cites as the
	// hardware alternative to allocation.
	var pcs []uint64
	for i := 0; i < 24; i++ {
		pcs = append(pcs, uint64(i)*4)
	}
	dir := func(pc uint64, i int) bool {
		biasedTaken := (pc/4)%2 == 0
		jitter := hashBit(pc, i)
		// ~6% of executions go against the bias.
		against := jitter && hashBit(pc+1, i) && hashBit(pc+2, i)
		if biasedTaken {
			return !against
		}
		return against
	}

	gs, err := NewGshare(64) // small: heavy cross-branch aliasing
	if err != nil {
		t.Fatal(err)
	}
	ag, err := NewAgree(64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	missGs, total := drive(gs, pcs, 2000, dir)
	missAg, _ := drive(ag, pcs, 2000, dir)
	rateGs := float64(missGs) / float64(total)
	rateAg := float64(missAg) / float64(total)
	if rateAg+0.02 >= rateGs {
		t.Fatalf("agree (%.3f) not clearly better than gshare (%.3f) under aliasing", rateAg, rateGs)
	}
}

func TestAgreeRejectsBadSizes(t *testing.T) {
	if _, err := NewAgree(1, 64); err == nil {
		t.Error("PHT 1 accepted")
	}
	if _, err := NewAgree(64, 0); err == nil {
		t.Error("0 bias entries accepted")
	}
}

func TestCombiningPicksBetterComponent(t *testing.T) {
	// Branch A is best predicted locally (period 4); branch B globally
	// (follows A)... keep it simple: one component is bimodal (bad on
	// alternating), the other PAg (good). The tournament must approach
	// the better component on an alternating branch.
	bim, err := NewBimodal(64)
	if err != nil {
		t.Fatal(err)
	}
	pag, err := NewPAg(PCModIndexer{Entries: 16}, 256)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := NewCombining(bim, pag, 64)
	if err != nil {
		t.Fatal(err)
	}
	dir := func(_ uint64, i int) bool { return i%2 == 0 }
	miss, total := drive(comb, []uint64{4}, 2000, dir)
	if rate := float64(miss) / float64(total); rate > 0.10 {
		t.Fatalf("combining rate %.3f on alternating branch", rate)
	}
	if !strings.Contains(comb.Name(), "combining") {
		t.Fatalf("name %q", comb.Name())
	}
}

func TestCombiningBeatsWorseComponent(t *testing.T) {
	mkPair := func() (*Bimodal, *PAg, *Combining) {
		bim, _ := NewBimodal(64)
		pag, _ := NewPAg(PCModIndexer{Entries: 16}, 256)
		comb, _ := NewCombining(bim, pag, 64)
		return bim, pag, comb
	}
	_, _, comb := mkPair()
	bimSolo, _ := NewBimodal(64)

	dir := func(_ uint64, i int) bool { return i%2 == 0 }
	missComb, total := drive(comb, []uint64{4}, 2000, dir)
	missBim, _ := drive(bimSolo, []uint64{4}, 2000, dir)
	if missComb >= missBim {
		t.Fatalf("tournament (%d/%d) no better than its weak component (%d)", missComb, total, missBim)
	}
}

func TestCombiningRejectsBadSelector(t *testing.T) {
	bim, _ := NewBimodal(64)
	pag, _ := NewPAg(PCModIndexer{Entries: 16}, 256)
	if _, err := NewCombining(bim, pag, 3); err == nil {
		t.Error("non-power-of-two selector accepted")
	}
}
