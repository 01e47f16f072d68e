package mat

import (
	"math"
	"testing"
)

// fuzzValue maps one corpus byte to an operand element: the low codes
// are the values the kernel must not mishandle (either zero — the skip
// test keys on them — NaN, the infinities, denormals, the extremes), the
// rest small dyadic numbers whose products and sums are exact.
func fuzzValue(b byte) float64 {
	specials := [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -1.5e-323, 2.2e-308, math.MaxFloat64, -math.MaxFloat64, 1e-200, 1e200}
	if int(b) < 4*len(specials) {
		return specials[int(b)%len(specials)]
	}
	return float64(int(b)-152) / 8
}

// canary is a NaN no arithmetic produces, so a stray store is visible
// whatever it writes.
const canary = 0x7ff8dead0badcafe

// FuzzProduct drives Product.Eval — the one kernel that reads and
// writes through raw pointers — with the shape, the strides, SkipZeros,
// the Init kind and the contents all taken from the corpus. A, B, Init
// and Out are carved out of one buffer with canaries before, between
// and after them; the result must match the scalar loops of productRef
// bit for bit, padding inside Out's rows included, with every canary
// and every input intact, under native dispatch and again with the
// SIMD kernels forced off. The seeds are the shipped TranAD layers'
// products at the shipped 8-row window.
func FuzzProduct(f *testing.F) {
	const (
		skip       = 1 << 0
		transposed = 1 << 1
		initBias   = 1 << 2
		initAlias  = 2 << 2
	)
	data := []byte{200, 0, 1, 160, 2, 90, 255, 3, 4, 120, 5, 7, 180, 40, 100, 60, 211, 48, 130}
	for _, s := range layerShapes {
		f.Add(uint8(benchRows), uint8(s.in), uint8(s.width), uint8(0), uint8(0), uint8(0), uint8(skip|initBias), data)        // forward
		f.Add(uint8(s.in), uint8(benchRows), uint8(s.width), uint8(0), uint8(0), uint8(0), uint8(transposed|initAlias), data) // dW
		f.Add(uint8(benchRows), uint8(s.width), uint8(s.in), uint8(0), uint8(0), uint8(0), uint8(0), data)                    // dx
		f.Add(uint8(1), uint8(benchRows), uint8(s.width), uint8(0), uint8(0), uint8(0), uint8(initAlias), data)               // db
	}
	// One attention head (dk 6 of DModel 12): column slices of wider matrices.
	f.Add(uint8(benchRows), uint8(6), uint8(benchRows), uint8(6), uint8(0), uint8(0), uint8(0), data)               // scores
	f.Add(uint8(benchRows), uint8(benchRows), uint8(6), uint8(0), uint8(6), uint8(6), uint8(0), data)               // value mix
	f.Add(uint8(benchRows), uint8(benchRows), uint8(6), uint8(0), uint8(6), uint8(6), uint8(skip|transposed), data) // dK

	f.Fuzz(func(t *testing.T, rows, inner, width, padA, padB, padOut, flags uint8, data []byte) {
		p := Product{Rows: int(rows % 11), Inner: int(inner % 33), Width: int(width % 50), SkipZeros: flags&skip != 0}
		if flags&transposed == 0 {
			p.ARow, p.AK = p.Inner+int(padA%8), 1
		} else {
			p.ARow, p.AK = 1, p.Rows+int(padA%8)
		}
		p.LdB, p.LdOut = p.Width+int(padB%8), p.Width+int(padOut%8)
		lens := [4]int{span(p.Rows, p.ARow, p.Inner, p.AK), span(p.Inner, p.LdB, p.Width, 1), 0, span(p.Rows, p.LdOut, p.Width, 1)}
		initKind := flags >> 2 & 3
		if initKind == 1 {
			lens[2] = p.Width
		}

		// canaries | A | canaries | B | canaries | Init | canaries | Out | canaries
		const guard = 4
		buf := make([]float64, guard+lens[0]+guard+lens[1]+guard+lens[2]+guard+lens[3]+guard)
		for i := range buf {
			buf[i] = math.Float64frombits(canary)
		}
		var operands [4][]float64
		start := guard
		for i, n := range lens {
			operands[i] = buf[start : start+n : start+n]
			start += n + guard
		}
		next := 0
		for _, op := range operands {
			for i := range op {
				if len(data) > 0 {
					op[i] = fuzzValue(data[next%len(data)])
					next++
				} else {
					op[i] = 1
				}
			}
		}
		p.A, p.B, p.Out = operands[0], operands[1], operands[3]
		switch initKind {
		case 1:
			p.Init = operands[2]
		case 2:
			p.Init, p.LdInit = p.Out, p.LdOut
		}

		before := append([]float64(nil), buf...)
		run := func(mode string) {
			copy(buf, before)
			want := productRef(&p)
			p.Eval()
			assertSameBits(t, mode+": out", p.Out, want)
			outStart := len(buf) - guard - len(p.Out)
			for i, v := range buf[:outStart] {
				if math.Float64bits(v) != math.Float64bits(before[i]) {
					t.Errorf("%s: buffer[%d] (an input or a canary before Out) changed from %x to %x", mode, i, math.Float64bits(before[i]), math.Float64bits(v))
					break
				}
			}
			for i, v := range buf[len(buf)-guard:] {
				if math.Float64bits(v) != canary {
					t.Errorf("%s: canary %d past Out overwritten with %x", mode, i, math.Float64bits(v))
				}
			}
			if t.Failed() {
				t.Fatalf("%+v", p)
			}
		}
		run("native")
		forceScalar(t)
		run("scalar")
	})
}
