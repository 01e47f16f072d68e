package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64. The zero value is an
// empty matrix; use NewMatrix to allocate one with dimensions.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed r×c matrix. It panics if r or c is
// negative, which indicates a programming error rather than bad data.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: NewMatrix(%d, %d): negative dimension", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix by copying the given rows. All rows must have
// equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("mat: FromRows: row %d has %d columns, want %d: %w", i, len(row), c, ErrDimension)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// ColInto gathers column j into dst, which must have length m.Rows, and
// returns dst, allocating nothing, for callers that walk many columns
// (CorrelationMatrix, ColStds).
func (m *Matrix) ColInto(dst []float64, j int) []float64 {
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: ColInto: len(dst)=%d, Rows=%d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// ColMeans returns the per-column means (NaN for a matrix without rows).
func (m *Matrix) ColMeans() []float64 {
	out := make([]float64, m.Cols)
	m.colStats(out, nil)
	return out
}

// ColStds returns the per-column population standard deviations.
func (m *Matrix) ColStds() []float64 {
	means, out := make([]float64, m.Cols), make([]float64, m.Cols)
	m.colStats(means, out)
	return out
}

// colStats fills means and, when non-nil, stds (both of length Cols)
// with the column statistics. Every column accumulates in row order —
// the sum, then the squared deviations from the mean, both scaled by
// 1/rows — so the bits do not depend on how the matrix is walked.
func (m *Matrix) colStats(means, stds []float64) {
	inv := 1 / float64(m.Rows)
	clear(means)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			means[j] += v
		}
	}
	for j := range means {
		means[j] *= inv
	}
	if stds == nil {
		return
	}
	clear(stds)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			d := v - means[j]
			stds[j] += d * d
		}
	}
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] * inv)
	}
}

// CorrelationMatrix returns the Cols×Cols Pearson correlation matrix of
// the columns of m. Constant columns correlate 0 with everything and 1
// with themselves.
func (m *Matrix) CorrelationMatrix() (*Matrix, error) {
	out := NewMatrix(m.Cols, m.Cols)
	// One backing slab for all gathered columns instead of an
	// allocation per column.
	back := make([]float64, m.Cols*m.Rows)
	cols := make([][]float64, m.Cols)
	for j := 0; j < m.Cols; j++ {
		cols[j] = m.ColInto(back[j*m.Rows:(j+1)*m.Rows], j)
	}
	for a := 0; a < m.Cols; a++ {
		out.Set(a, a, 1)
		for b := a + 1; b < m.Cols; b++ {
			r, err := Pearson(cols[a], cols[b])
			if err != nil {
				return nil, err
			}
			out.Set(a, b, r)
			out.Set(b, a, r)
		}
	}
	return out, nil
}

// UpperTriangle returns the strict upper triangle of a square matrix in
// row-major order: (0,1), (0,2), ..., (n-2, n-1). This is the
// f*(f-1)/2-dimensional feature vector used by the correlation transform.
func (m *Matrix) UpperTriangle() ([]float64, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("mat: UpperTriangle of %dx%d matrix: %w", m.Rows, m.Cols, ErrDimension)
	}
	out := make([]float64, 0, m.Rows*(m.Rows-1)/2)
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			out = append(out, m.At(i, j))
		}
	}
	return out, nil
}

// StandardizeInPlace shifts each column of m to zero mean and scales it
// to unit standard deviation, in place and without allocating, and
// fills means and stds (length Cols) with the statistics used, so new
// data can be projected into the same space. Constant columns are left
// centred but unscaled.
func (m *Matrix) StandardizeInPlace(means, stds []float64) {
	if len(means) != m.Cols || len(stds) != m.Cols {
		panic(fmt.Sprintf("mat: StandardizeInPlace: len(means)=%d len(stds)=%d, Cols=%d", len(means), len(stds), m.Cols))
	}
	m.colStats(means, stds)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] -= means[j]
			if stds[j] > 0 {
				row[j] /= stds[j]
			}
		}
	}
}

// ApplyStandardization projects x (a single row) into the standardized
// space defined by means and stds.
func ApplyStandardization(x, means, stds []float64) ([]float64, error) {
	return ApplyStandardizationInto(make([]float64, len(x)), x, means, stds)
}

// ApplyStandardizationInto is the allocation-free ApplyStandardization:
// it writes into out, which must have x's length, and returns out.
func ApplyStandardizationInto(out, x, means, stds []float64) ([]float64, error) {
	if len(x) != len(means) || len(x) != len(stds) || len(out) != len(x) {
		return nil, ErrDimension
	}
	for j := range x {
		out[j] = x[j] - means[j]
		if stds[j] > 0 {
			out[j] /= stds[j]
		}
	}
	return out, nil
}
