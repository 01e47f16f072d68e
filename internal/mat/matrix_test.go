package mat

import (
	"math"
	"testing"
)

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix with negative dims should panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestFromRowsAndAccess(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 1) != 4 {
		t.Errorf("At(1,1) = %v", m.At(1, 1))
	}
	m.Set(1, 1, 40)
	if m.At(1, 1) != 40 {
		t.Errorf("Set failed")
	}
	if r := m.Row(2); r[0] != 5 || r[1] != 6 {
		t.Errorf("Row(2) = %v", r)
	}
	if c := m.ColInto(make([]float64, 3), 0); c[0] != 1 || c[1] != 3 || c[2] != 5 {
		t.Errorf("ColInto(0) = %v", c)
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows should error")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Error("FromRows(nil) should give empty matrix")
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
}

func TestColMeansStds(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 10}, {3, 10}})
	means := m.ColMeans()
	if means[0] != 2 || means[1] != 10 {
		t.Errorf("ColMeans = %v", means)
	}
	stds := m.ColStds()
	if stds[0] != 1 || stds[1] != 0 {
		t.Errorf("ColStds = %v", stds)
	}
	e := NewMatrix(0, 2)
	for _, v := range e.ColMeans() {
		if !math.IsNaN(v) {
			t.Error("empty ColMeans should be NaN")
		}
	}
	for _, v := range e.ColStds() {
		if !math.IsNaN(v) {
			t.Error("empty ColStds should be NaN")
		}
	}
}

func TestCorrelationMatrix(t *testing.T) {
	// col0 and col1 perfectly correlated, col2 anti-correlated with col0.
	m, _ := FromRows([][]float64{
		{1, 2, 3},
		{2, 4, 2},
		{3, 6, 1},
	})
	cm, err := m.CorrelationMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Rows != 3 || cm.Cols != 3 {
		t.Fatalf("dims %dx%d", cm.Rows, cm.Cols)
	}
	for i := 0; i < 3; i++ {
		if cm.At(i, i) != 1 {
			t.Errorf("diag[%d] = %v", i, cm.At(i, i))
		}
	}
	if !almostEq(cm.At(0, 1), 1, 1e-12) {
		t.Errorf("r(0,1) = %v, want 1", cm.At(0, 1))
	}
	if !almostEq(cm.At(0, 2), -1, 1e-12) {
		t.Errorf("r(0,2) = %v, want -1", cm.At(0, 2))
	}
	if cm.At(1, 2) != cm.At(2, 1) {
		t.Error("correlation matrix not symmetric")
	}
}

func TestUpperTriangle(t *testing.T) {
	m, _ := FromRows([][]float64{
		{1, 2, 3},
		{2, 1, 4},
		{3, 4, 1},
	})
	ut, err := m.UpperTriangle()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4}
	if len(ut) != 3 {
		t.Fatalf("len = %d", len(ut))
	}
	for i := range want {
		if ut[i] != want[i] {
			t.Errorf("ut[%d] = %v, want %v", i, ut[i], want[i])
		}
	}
	rect, _ := FromRows([][]float64{{1, 2, 3}})
	if _, err := rect.UpperTriangle(); err == nil {
		t.Error("UpperTriangle of non-square should error")
	}
	// n features => n*(n-1)/2 entries
	big := NewMatrix(6, 6)
	ut, _ = big.UpperTriangle()
	if len(ut) != 15 {
		t.Errorf("6x6 upper triangle has %d entries, want 15", len(ut))
	}
}

func TestStandardize(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 5}, {3, 5}})
	s, means, stds := m.Clone(), make([]float64, 2), make([]float64, 2)
	s.StandardizeInPlace(means, stds)
	if means[0] != 2 || stds[0] != 1 {
		t.Errorf("means=%v stds=%v", means, stds)
	}
	if s.At(0, 0) != -1 || s.At(1, 0) != 1 {
		t.Errorf("standardized col0 = %v, %v", s.At(0, 0), s.At(1, 0))
	}
	// Constant column: centred, not scaled.
	if s.At(0, 1) != 0 || s.At(1, 1) != 0 {
		t.Errorf("constant col should centre to 0: %v %v", s.At(0, 1), s.At(1, 1))
	}
	// The statistics are ColMeans' and ColStds', bit for bit.
	for j := range means {
		if means[j] != m.ColMeans()[j] || stds[j] != m.ColStds()[j] {
			t.Errorf("col %d: stats (%v, %v) differ from ColMeans/ColStds", j, means[j], stds[j])
		}
	}
	x, err := ApplyStandardization([]float64{5, 5}, means, stds)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 0 {
		t.Errorf("ApplyStandardization = %v", x)
	}
	if _, err := ApplyStandardization([]float64{1}, means, stds); err == nil {
		t.Error("mismatched ApplyStandardization should error")
	}
}
