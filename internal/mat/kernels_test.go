package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// matMulNaive is the reference: per-output-element accumulation in
// k-order, the same order the kernels contract to preserve.
func matMulNaive(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// mulInto evaluates dst = a·b as one contiguous Product.
func mulInto(dst, a, b *Matrix) {
	(&Product{Rows: a.Rows, Inner: a.Cols, Width: b.Cols, A: a.Data, ARow: a.Cols, AK: 1,
		B: b.Data, LdB: b.Cols, Out: dst.Data, LdOut: b.Cols}).Eval()
}

func TestProductBitIdenticalToNaiveMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 4}, {8, 12, 24}, {64, 17, 33}, {130, 9, 7}, {257, 31, 19}} {
		a := randMatrix(rng, dims[0], dims[1])
		b := randMatrix(rng, dims[1], dims[2])
		want := matMulNaive(a, b)
		got := randMatrix(rng, dims[0], dims[2]) // must be overwritten
		mulInto(got, a, b)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("dims %v: element %d: got %v want %v (not bit-identical)", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestProductZeroAlloc: a Product literal must stay on the caller's
// stack — the layers evaluate a dozen of them per training step.
func TestProductZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 6, 4)
	b := randMatrix(rng, 4, 5)
	dst := NewMatrix(6, 5)
	if allocs := testing.AllocsPerRun(100, func() { mulInto(dst, a, b) }); allocs != 0 {
		t.Fatalf("Product.Eval allocates %v times", allocs)
	}
}

func TestAddScaledBitIdenticalToScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 33} {
		x := make([]float64, n)
		dst := make([]float64, n)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64()
			dst[i] = rng.NormFloat64()
			want[i] = dst[i]
		}
		alpha := rng.NormFloat64()
		for i := range want {
			want[i] += alpha * x[i]
		}
		AddScaled(dst, alpha, x)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d element %d: got %v want %v", n, i, dst[i], want[i])
			}
		}
	}
}

func TestKernelPanicsOnMismatch(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic on dimension mismatch", name)
			}
		}()
		fn()
	}
	expectPanic("AddScaled", func() { AddScaled(make([]float64, 3), 1, make([]float64, 4)) })
	expectPanic("ColInto", func() { NewMatrix(3, 2).ColInto(make([]float64, 2), 0) })
}

func TestColIntoMatchesColZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMatrix(rng, 17, 5)
	dst := make([]float64, m.Rows)
	for j := 0; j < m.Cols; j++ {
		got := m.ColInto(dst, j)
		for i := range got {
			if want := m.At(i, j); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("col %d row %d: got %v want %v", j, i, got[i], want)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() { m.ColInto(dst, 3) })
	if allocs != 0 {
		t.Fatalf("ColInto allocates %v times per call", allocs)
	}
}

func TestEnsureShape(t *testing.T) {
	m := NewMatrix(4, 4)
	backing := &m.Data[0]
	m.EnsureShape(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("EnsureShape shrink: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	if &m.Data[0] != backing {
		t.Fatal("EnsureShape reallocated a sufficient backing slice")
	}
	m.EnsureShape(5, 5)
	if len(m.Data) != 25 {
		t.Fatalf("EnsureShape grow: len %d", len(m.Data))
	}
}

func TestTransposeInto(t *testing.T) {
	dispatchModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for rows := 0; rows <= 13; rows++ {
			for cols := 0; cols <= 13; cols++ {
				m := randMatrix(rng, rows, cols)
				tr := m.TransposeInto(randMatrix(rng, 2, 3))
				if tr.Rows != cols || tr.Cols != rows {
					t.Fatalf("%dx%d: transpose dims %dx%d", rows, cols, tr.Rows, tr.Cols)
				}
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						if math.Float64bits(m.At(i, j)) != math.Float64bits(tr.At(j, i)) {
							t.Fatalf("%dx%d: element (%d,%d) = %v, want %v", rows, cols, j, i, tr.At(j, i), m.At(i, j))
						}
					}
				}
			}
		}
	})
}

func BenchmarkProduct(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randMatrix(rng, 64, 64)
	y := randMatrix(rng, 64, 64)
	dst := NewMatrix(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulInto(dst, x, y)
	}
}

func BenchmarkColInto(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := randMatrix(rng, 512, 16)
	dst := make([]float64, m.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ColInto(dst, i%m.Cols)
	}
}
