package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/eval"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/transform"
)

// smallOpts returns options at test scale with a pre-generated fleet so
// the fleet is built once per test run.
func smallOpts(t *testing.T) *Options {
	t.Helper()
	return &Options{FleetConfig: fleetsim.SmallConfig()}
}

func TestFigure1(t *testing.T) {
	opts := smallOpts(t)
	r, err := Figure1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Vehicles) == 0 {
		t.Fatal("no timeline vehicles")
	}
	// The motivating claim: most failures have no DTC warning, and most
	// DTCs are unrelated to failures.
	if r.FailuresWithoutDTC < r.FailuresWithDTCBefore {
		t.Errorf("DTCs too informative: %d with warning vs %d without",
			r.FailuresWithDTCBefore, r.FailuresWithoutDTC)
	}
	if r.TotalDTCs > 0 && r.DTCsUnrelatedToFailure*2 < r.TotalDTCs {
		t.Errorf("most DTCs should be unrelated to failures: %d of %d",
			r.DTCsUnrelatedToFailure, r.TotalDTCs)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "repair") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestFigure2(t *testing.T) {
	opts := smallOpts(t)
	r, err := Figure2(opts, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 9 || len(r.Clusters) != 9 {
		t.Fatalf("expected 9 clusters, got %d", len(r.Clusters))
	}
	total := 0
	for _, c := range r.Clusters {
		total += c.Size
	}
	if total != r.NumDays {
		t.Errorf("cluster sizes sum to %d, want %d", total, r.NumDays)
	}
	if r.OutliersTotal < 1 {
		t.Fatal("no outliers collected")
	}
	if r.OutliersNearFailure+r.OutliersNoFailureAfter+r.OutliersFarFromFailure != r.OutliersTotal {
		t.Error("outlier categories do not partition the outliers")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "LOF outliers") {
		t.Error("render missing outlier section")
	}
}

// smallGrid computes a reduced grid once for the figure/table tests.
func smallGrid(t *testing.T, opts *Options) {
	t.Helper()
	f := opts.fleet()
	spec := gridSpec(f)
	// Reduce to keep the test fast: two techniques, two transforms.
	spec.Techniques = []eval.Technique{eval.ClosestPair, eval.Grand}
	spec.Transforms = []transform.Kind{transform.Correlation, transform.MeanAgg}
	g, err := eval.RunGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts.Grid = g
}

func TestFigures45RenderAndBest(t *testing.T) {
	opts := smallOpts(t)
	smallGrid(t, opts)
	r, err := Figures45(opts)
	if err != nil {
		t.Fatal(err)
	}
	best := r.BestCell(Setting26, PH30)
	if best == nil {
		t.Fatal("no best cell")
	}
	var buf bytes.Buffer
	r.Render(&buf, Setting26)
	out := buf.String()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "correlation") {
		t.Errorf("render missing content:\n%s", out)
	}
	buf.Reset()
	r.Render(&buf, Setting40)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("setting40 should render as Figure 4")
	}
}

func TestFigures67(t *testing.T) {
	// The critical diagrams need the full technique × transform grid;
	// build it on the small fleet.
	opts := smallOpts(t)
	f := opts.fleet()
	g, err := eval.RunGrid(gridSpec(f))
	if err != nil {
		t.Fatal(err)
	}
	opts.Grid = g

	f6, err := Figure6(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Diagrams) != 3 {
		t.Fatalf("Figure 6 should have 3 diagrams, got %d", len(f6.Diagrams))
	}
	for _, d := range f6.Diagrams {
		if len(d.Diagram.Names) != 4 {
			t.Errorf("%s: %d treatments, want 4 transforms", d.Label, len(d.Diagram.Names))
		}
	}
	f7, err := Figure7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Diagrams) != 3 {
		t.Fatalf("Figure 7 should have 3 diagrams, got %d", len(f7.Diagrams))
	}
	var buf bytes.Buffer
	f6.Render(&buf)
	f7.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Friedman") || !strings.Contains(out, "closest-pair") {
		t.Errorf("render missing content")
	}

	t1, err := Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Timing) != 16 {
		t.Errorf("Table 1 should have 16 timing cells, got %d", len(t1.Timing))
	}
	buf.Reset()
	t1.Render(&buf)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("table 1 render missing title")
	}
}

func TestTables23(t *testing.T) {
	opts := smallOpts(t)
	t2, err := Table2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 4 {
		t.Fatalf("Table 2 should have 4 rows, got %d", len(t2.Rows))
	}
	// Shared parametrisation across rows.
	for _, row := range t2.Rows {
		if row.Param != t2.Param {
			t.Errorf("Table 2 rows must share one parameter: %v vs %v", row.Param, t2.Param)
		}
		if row.Metrics.Precision < 0 || row.Metrics.Precision > 1 {
			t.Errorf("invalid precision %v", row.Metrics.Precision)
		}
	}
	t3, err := Table3(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 4 {
		t.Fatalf("Table 3 should have 4 rows, got %d", len(t3.Rows))
	}
	var buf bytes.Buffer
	t2.Render(&buf)
	t3.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "Table 3") {
		t.Error("table renders missing titles")
	}
	// The paper's Table 3 finding: ignoring services degrades the mean
	// F0.5 relative to Table 2 (checked as a weak inequality because the
	// small fleet is noisy: the ablation must never be better).
	mean := func(rows []TableRow) float64 {
		var s float64
		for _, r := range rows {
			s += r.Metrics.F05
		}
		return s / float64(len(rows))
	}
	if mean(t3.Rows) > mean(t2.Rows)+0.15 {
		t.Errorf("reset-on-repairs-only (%.3f) should not beat the full policy (%.3f)",
			mean(t3.Rows), mean(t2.Rows))
	}
}

func TestFigure8(t *testing.T) {
	opts := smallOpts(t)
	r, err := Figure8(opts, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.VehicleID == "" {
		t.Fatal("no vehicle selected")
	}
	if len(r.FeatureNames) != 15 {
		t.Errorf("expected 15 correlation features, got %d", len(r.FeatureNames))
	}
	if len(r.Trace.Times) == 0 {
		t.Fatal("no scored samples traced")
	}
	if len(r.Events) == 0 {
		t.Fatal("no events for the vehicle")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, r.VehicleID) {
		t.Error("render missing header")
	}
	if !strings.Contains(out, "events (S service, R repair)") {
		t.Error("render missing event row")
	}
}

func TestOptionsReuse(t *testing.T) {
	opts := smallOpts(t)
	f1 := opts.fleet()
	f2 := opts.fleet()
	if f1 != f2 {
		t.Error("fleet should be generated once and reused")
	}
	_ = time.Second
}
