package neighbors

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func grid2D() [][]float64 {
	var pts [][]float64
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			pts = append(pts, []float64{float64(x), float64(y)})
		}
	}
	return pts
}

func TestBruteKNNExact(t *testing.T) {
	idx, err := NewBrute(grid2D())
	if err != nil {
		t.Fatal(err)
	}
	ids, dists := idx.KNN([]float64{0, 0}, 3)
	if len(ids) != 3 {
		t.Fatalf("got %d results", len(ids))
	}
	if dists[0] != 0 {
		t.Errorf("nearest distance = %v, want 0 (query on a point)", dists[0])
	}
	if dists[1] != 1 || dists[2] != 1 {
		t.Errorf("next distances = %v, %v, want 1, 1", dists[1], dists[2])
	}
	// Ascending order.
	if !sort.Float64sAreSorted(dists) {
		t.Error("distances not sorted")
	}
}

func TestBruteEdgeCases(t *testing.T) {
	if _, err := NewBrute(nil); err != ErrNoData {
		t.Error("empty brute index should error")
	}
	idx, _ := NewBrute([][]float64{{1, 1}})
	ids, dists := idx.KNN([]float64{0, 0}, 5)
	if len(ids) != 1 {
		t.Errorf("k clamped: got %d", len(ids))
	}
	if math.Abs(dists[0]-math.Sqrt2) > 1e-12 {
		t.Errorf("distance = %v", dists[0])
	}
	if ids, _ := idx.KNN([]float64{0, 0}, 0); ids != nil {
		t.Error("k=0 should return nil")
	}
	if idx.Len() != 1 || idx.Point(0)[0] != 1 {
		t.Error("Len/Point wrong")
	}
}

func TestKDTreeMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dim := range []int{1, 2, 6, 15} {
		n := 300
		data := make([][]float64, n)
		for i := range data {
			p := make([]float64, dim)
			for j := range p {
				p[j] = rng.NormFloat64() * 10
			}
			data[i] = p
		}
		brute, _ := NewBrute(data)
		tree, err := NewKDTree(data)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.NormFloat64() * 10
			}
			k := 1 + rng.Intn(10)
			_, bd := brute.KNN(q, k)
			_, td := tree.KNN(q, k)
			if len(bd) != len(td) {
				t.Fatalf("dim=%d k=%d: result sizes differ", dim, k)
			}
			for i := range bd {
				if math.Abs(bd[i]-td[i]) > 1e-9 {
					t.Fatalf("dim=%d k=%d: distance %d differs: brute %v vs tree %v", dim, k, i, bd[i], td[i])
				}
			}
		}
	}
}

func TestKDTreeEdgeCases(t *testing.T) {
	if _, err := NewKDTree(nil); err != ErrNoData {
		t.Error("empty tree should error")
	}
	tree, _ := NewKDTree([][]float64{{1, 2}})
	ids, _ := tree.KNN([]float64{1, 2}, 1)
	if len(ids) != 1 || ids[0] != 0 {
		t.Error("single-point tree query failed")
	}
	// Wrong dimensionality query.
	if ids, _ := tree.KNN([]float64{1}, 1); ids != nil {
		t.Error("mismatched query dim should return nil")
	}
	if tree.Len() != 1 || tree.Point(0)[1] != 2 {
		t.Error("Len/Point wrong")
	}
}

func TestKDTreeDuplicates(t *testing.T) {
	data := [][]float64{{1, 1}, {1, 1}, {1, 1}, {5, 5}}
	tree, _ := NewKDTree(data)
	ids, dists := tree.KNN([]float64{1, 1}, 3)
	if len(ids) != 3 {
		t.Fatalf("got %d", len(ids))
	}
	for i := 0; i < 3; i++ {
		if dists[i] != 0 {
			t.Errorf("duplicate distances = %v", dists)
		}
	}
}

func TestKNNDistanceAndNearest(t *testing.T) {
	idx, _ := NewBrute([][]float64{{0}, {2}, {10}})
	// q=1: neighbours at distance 1 (0), 1 (2) -> mean 1.
	if got := KNNDistance(idx, []float64{1}, 2); got != 1 {
		t.Errorf("KNNDistance = %v, want 1", got)
	}
}

func TestLOFInlierOutlier(t *testing.T) {
	// Tight cluster plus one far point.
	rng := rand.New(rand.NewSource(3))
	var data [][]float64
	for i := 0; i < 60; i++ {
		data = append(data, []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5})
	}
	data = append(data, []float64{12, 12})
	idx, _ := NewBrute(data)
	l := FitLOF(idx, 10)
	scores := l.Scores()
	outlierScore := scores[len(scores)-1]
	if outlierScore < 2 {
		t.Errorf("outlier LOF = %v, want clearly > inliers", outlierScore)
	}
	var maxInlier float64
	for _, s := range scores[:60] {
		if s > maxInlier {
			maxInlier = s
		}
	}
	if outlierScore <= maxInlier {
		t.Errorf("outlier (%v) should outrank every inlier (max %v)", outlierScore, maxInlier)
	}
	// Inliers hover near 1.
	for i, s := range scores[:60] {
		if s < 0.5 || s > 2.5 {
			t.Errorf("inlier %d LOF = %v, expected near 1", i, s)
		}
	}
}

func TestLOFQueryScore(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var data [][]float64
	for i := 0; i < 80; i++ {
		data = append(data, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	idx, _ := NewBrute(data)
	l := FitLOF(idx, 10)
	in := l.Score([]float64{0.1, -0.2})
	out := l.Score([]float64{15, 15})
	if out <= in {
		t.Errorf("outlier query score (%v) should exceed inlier (%v)", out, in)
	}
	if in < 0.3 || in > 3 {
		t.Errorf("inlier query score = %v, expected near 1", in)
	}
	if out < 5 {
		t.Errorf("far outlier score = %v, expected large", out)
	}
}

func TestLOFDuplicateHeavyData(t *testing.T) {
	// Many identical points: densities go infinite; scores must stay
	// finite-and-sane (the convention maps dup-vs-dup to 1).
	data := [][]float64{}
	for i := 0; i < 10; i++ {
		data = append(data, []float64{1, 1})
	}
	data = append(data, []float64{4, 4})
	idx, _ := NewBrute(data)
	l := FitLOF(idx, 3)
	scores := l.Scores()
	for i := 0; i < 10; i++ {
		if scores[i] != 1 {
			t.Errorf("duplicate point %d LOF = %v, want 1", i, scores[i])
		}
	}
	// Querying a duplicate must not panic or NaN.
	s := l.Score([]float64{1, 1})
	if math.IsNaN(s) {
		t.Error("duplicate query score is NaN")
	}
}

func TestLOFKClamping(t *testing.T) {
	data := [][]float64{{0}, {1}, {2}}
	idx, _ := NewBrute(data)
	l := FitLOF(idx, 10) // k clamped to 2
	if l.K() != 2 {
		t.Errorf("K = %d, want 2", l.K())
	}
	l = FitLOF(idx, 0) // clamped up to 1
	if l.K() != 1 {
		t.Errorf("K = %d, want 1", l.K())
	}
}

func BenchmarkBruteKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([][]float64, 2000)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	idx, _ := NewBrute(data)
	q := []float64{0, 0, 0, 0, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.KNN(q, 10)
	}
}

func BenchmarkKDTreeKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([][]float64, 2000)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	tree, _ := NewKDTree(data)
	q := []float64{0, 0, 0, 0, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNN(q, 10)
	}
}
