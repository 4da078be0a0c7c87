package predict

import (
	"fmt"
	"strings"
)

// Perceptron is the hashed perceptron predictor of Jiménez & Lin: each
// table row holds a bias weight plus one signed weight per global
// history bit, the prediction is the sign of the dot product between the
// weights and the ±1-encoded history, and training bumps each weight
// toward agreement whenever the prediction was wrong or the output
// margin was inside the training threshold. Weights saturate at
// hardware-budget bounds (7 bits here), which is what keeps a single
// noisy branch from burning a whole row — the zoo's property suite
// asserts the bounds hold under arbitrary streams.
//
// The row index is pluggable like every zoo member: conventional
// hardware hashes PC bits (PCModIndexer); the allocated-index variant
// routes the row choice through a core.AllocationMap (AllocIndexer), so
// working-set-driven allocation decides which branches share a weight
// vector.
type Perceptron struct {
	indexer Indexer
	weights []int8 // rows × (hlen+1); w[row*(hlen+1)] is the bias
	hist    uint64
	rows    int
	hlen    int
	mask    uint32
	theta   int32
}

const (
	// perceptronWMax/WMin are the 7-bit weight saturation rails.
	perceptronWMax = 63
	perceptronWMin = -64
	// perceptronMaxHistory bounds the history length to the register.
	perceptronMaxHistory = 64
)

// perceptronTheta is the classic training threshold fit, floor(1.93h + 14).
func perceptronTheta(hlen int) int32 { return int32(1.93*float64(hlen) + 14) }

// NewPerceptron builds a hashed perceptron with rows weight vectors
// (power of two > 1) over hlen bits of global history, rows selected
// through ix, which must target at least 1 entry.
func NewPerceptron(ix Indexer, rows, hlen int) (*Perceptron, error) {
	if rows <= 1 || rows&(rows-1) != 0 {
		return nil, fmt.Errorf("predict: perceptron rows must be a power of two > 1, got %d", rows)
	}
	if hlen < 1 || hlen > perceptronMaxHistory {
		return nil, fmt.Errorf("predict: perceptron history length %d outside [1,%d]", hlen, perceptronMaxHistory)
	}
	if err := checkIndexer(ix); err != nil {
		return nil, err
	}
	p := &Perceptron{
		indexer: ix,
		weights: make([]int8, rows*(hlen+1)),
		rows:    rows,
		hlen:    hlen,
		mask:    uint32(rows - 1),
		theta:   perceptronTheta(hlen),
	}
	return p, nil
}

// Name implements Predictor.
func (p *Perceptron) Name() string {
	return fmt.Sprintf("perceptron(%s/%d,h=%d)", p.indexer.Name(), p.rows, p.hlen)
}

// output computes the dot product for the row at w: bias plus each
// weight signed by its history bit (+w for taken, -w for not-taken).
// The per-bit sign is branchless: x in {+1,-1} from the history bit.
func (p *Perceptron) output(row []int8) int32 {
	out := int32(row[0])
	h := p.hist
	for i := 1; i <= p.hlen; i++ {
		x := 2*int32(h&1) - 1
		out += x * int32(row[i])
		h >>= 1
	}
	return out
}

// row returns the weight vector the indexer selects for pc.
func (p *Perceptron) row(pc uint64) []int8 {
	r := int(uint32(p.indexer.Index(pc)) & p.mask)
	return p.weights[r*(p.hlen+1) : (r+1)*(p.hlen+1)]
}

// Predict implements Predictor.
func (p *Perceptron) Predict(pc uint64) bool { return p.output(p.row(pc)) >= 0 }

// Update implements Predictor: train on a misprediction or a
// low-confidence correct prediction (|output| <= theta), then shift the
// history, and return the pre-training prediction. Each weight moves
// one step toward agreement with the outcome, clamped branchlessly to
// the 7-bit rails.
//
//reprolint:hotpath perceptron update loop
func (p *Perceptron) Update(pc uint64, taken bool) bool {
	row := p.row(pc)
	out := p.output(row)
	pred := out >= 0
	if pred != taken || abs32(out) <= p.theta {
		t := 2*int8(b2i(taken)) - 1 // outcome as ±1
		row[0] = min(max(row[0]+t, perceptronWMin), perceptronWMax)
		h := p.hist
		for i := 1; i <= p.hlen; i++ {
			x := 2*int8(h&1) - 1 // history bit as ±1
			// Agreement training: w += t*x is +1 when the bit matched
			// the outcome and -1 when it contradicted it.
			row[i] = min(max(row[i]+t*x, perceptronWMin), perceptronWMax)
			h >>= 1
		}
	}
	p.hist = (p.hist << 1) | uint64(b2i(taken))
	return pred
}

// abs32 is a branchless |x| for the confidence test.
func abs32(x int32) int32 {
	m := x >> 31
	return (x ^ m) - m
}

// Flush implements ZooPredictor: zero weights and history.
func (p *Perceptron) Flush() {
	clear(p.weights)
	p.hist = 0
}

// Snapshot implements ZooPredictor: the history register plus every row
// with a nonzero weight, in row order.
func (p *Perceptron) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perceptron hist=%#x theta=%d\n", p.hist, p.theta)
	stride := p.hlen + 1
	for r := 0; r < p.rows; r++ {
		row := p.weights[r*stride : (r+1)*stride]
		zero := true
		for _, w := range row {
			if w != 0 {
				zero = false
				break
			}
		}
		if !zero {
			fmt.Fprintf(&b, "w[%d]=%v\n", r, row)
		}
	}
	return b.String()
}
