package predict

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzTAGEFold fuzzes the TAGE hash arithmetic. The reference
// foldHistory must always fit the requested width, be linear over XOR
// (it is a GF(2) projection), and ignore history bits beyond histLen.
// TAGE's incrementally kept folded registers must equal that reference
// fold of the current history after every update of a fuzz-derived
// outcome stream, and after Flush, at table sizes whose index widths
// span 1–10 bits (history windows shorter than, multiples of, and up to
// 32 bits across the index and tag widths).
func FuzzTAGEFold(f *testing.F) {
	f.Add(uint64(0), uint8(4), uint8(4))
	f.Add(^uint64(0), uint8(32), uint8(9))
	f.Add(uint64(0xdeadbeefcafe), uint8(63), uint8(1))
	f.Add(uint64(1)<<63, uint8(64), uint8(16))
	f.Fuzz(func(t *testing.T, h uint64, histRaw, bitsRaw uint8) {
		histLen := uint(histRaw) % 65 // 0..64
		bits := uint(bitsRaw)%16 + 1  // 1..16

		v := foldHistory(h, histLen, bits)
		if v >= 1<<bits {
			t.Fatalf("foldHistory(%#x,%d,%d) = %#x exceeds width", h, histLen, bits, v)
		}
		// Linearity over XOR.
		h2 := h ^ 0x5555aaaa5555aaaa
		if foldHistory(h^h2, histLen, bits) != v^foldHistory(h2, histLen, bits) {
			t.Fatalf("fold not linear for h=%#x len=%d bits=%d", h, histLen, bits)
		}
		// Bits at positions >= histLen never leak into the fold.
		if histLen < 64 {
			if foldHistory(h|^uint64(0)<<histLen, histLen, bits) != v {
				t.Fatalf("fold leaked high bits for h=%#x len=%d bits=%d", h, histLen, bits)
			}
		}

		// Outcome i is bit i%64 of h; the stream outlasts the longest
		// (32-bit) window so bits leave every register.
		steps := 64 + int(histRaw)
		for _, size := range []int{2, 16, 128, 1024} {
			tage, err := NewTAGE(PCModIndexer{Entries: size}, size)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				for step := 0; step < steps; step++ {
					pc := uint64(step%int(bitsRaw|1)) * 4
					tage.Update(pc, h>>(step%64)&1 == 1)
					checkTAGEFolds(t, tage, fmt.Sprintf("size %d pass %d step %d", size, pass, step))
				}
				tage.Flush()
				checkTAGEFolds(t, tage, fmt.Sprintf("size %d pass %d after Flush", size, pass))
			}
		}
	})
}

// checkTAGEFolds asserts every folded register equals the reference
// fold of the current history.
func checkTAGEFolds(t *testing.T, tage *TAGE, at string) {
	t.Helper()
	for i, l := range tageHistLengths {
		if got, want := tage.fidx[i], foldHistory(tage.hist, l, tage.idxBits); got != want {
			t.Fatalf("%s: fidx[%d] = %#x, reference fold %#x (hist %#x)", at, i, got, want, tage.hist)
		}
		if got, want := tage.ftag[i], foldHistory(tage.hist, l, tageTagBits-1); got != want {
			t.Fatalf("%s: ftag[%d] = %#x, reference fold %#x (hist %#x)", at, i, got, want, tage.hist)
		}
	}
}

// FuzzPerceptronUpdate differentially fuzzes the branchless perceptron
// update against a straightforward reference model: for any (pc,
// outcome) stream the weights, history, and predictions must agree, and
// every weight must stay inside the saturation rails.
func FuzzPerceptronUpdate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x40, 0x03, 0x80, 0x00, 0xc0})
	f.Add([]byte{0xff, 0xff, 0xfe, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	f.Fuzz(func(t *testing.T, data []byte) {
		const rows, hlen = 8, 12
		p, err := NewPerceptron(PCModIndexer{Entries: rows}, rows, hlen)
		if err != nil {
			t.Fatal(err)
		}

		// Reference model: plain int arithmetic, explicit branches.
		ref := make([][]int, rows)
		for i := range ref {
			ref[i] = make([]int, hlen+1)
		}
		var refHist uint64
		theta := int(perceptronTheta(hlen))
		refOut := func(row []int) int {
			out := row[0]
			for i := 1; i <= hlen; i++ {
				if refHist>>(i-1)&1 == 1 {
					out += row[i]
				} else {
					out -= row[i]
				}
			}
			return out
		}
		clamp := func(w int) int {
			if w > perceptronWMax {
				return perceptronWMax
			}
			if w < perceptronWMin {
				return perceptronWMin
			}
			return w
		}

		for step := 0; len(data) >= 3; step++ {
			pc := uint64(binary.LittleEndian.Uint16(data[:2])) * 4
			taken := data[2]&1 == 1
			data = data[3:]

			row := ref[int(uint32(pc/4))%rows]
			out := refOut(row)
			if got, want := p.Predict(pc), out >= 0; got != want {
				t.Fatalf("step %d pc %#x: prediction %v, reference %v", step, pc, got, want)
			}

			p.Update(pc, taken)
			// Reference training rule, written the obvious way.
			pred := out >= 0
			mag := out
			if mag < 0 {
				mag = -mag
			}
			if pred != taken || mag <= theta {
				tsign := -1
				if taken {
					tsign = 1
				}
				row[0] = clamp(row[0] + tsign)
				for i := 1; i <= hlen; i++ {
					xsign := -1
					if refHist>>(i-1)&1 == 1 {
						xsign = 1
					}
					row[i] = clamp(row[i] + tsign*xsign)
				}
			}
			refHist = refHist<<1 | uint64(b2i(taken))

			// Weights agree and stay railed.
			prow := p.row(pc)
			for i, w := range prow {
				if int(w) != row[i] {
					t.Fatalf("step %d weight[%d] = %d, reference %d", step, i, w, row[i])
				}
				if w < perceptronWMin || w > perceptronWMax {
					t.Fatalf("step %d weight[%d] = %d outside rails", step, i, w)
				}
			}
		}
	})
}
