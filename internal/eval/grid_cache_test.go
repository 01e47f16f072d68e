package eval

import (
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/detector/regress"
	"github.com/navarchos/pdm/internal/detector/tranad"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// cacheSpec is the shared grid configuration for the cache tests: two
// techniques (one self-tuning, one constant-threshold) over two
// transform kinds, including a per-record kind with a profile long
// enough to push Grand onto its tree-index path.
func cacheSpec(t *testing.T) GridSpec {
	t.Helper()
	f := fleetsim.Generate(fleetsim.SmallConfig())
	return GridSpec{
		Records: f.Records,
		Events:  f.Events,
		Settings: map[string][]string{
			"settingAll":    f.AllVehicleIDs(),
			"settingEvents": f.EventVehicleIDs(),
		},
		Techniques:      []Technique{ClosestPair, Grand},
		Transforms:      []transform.Kind{transform.Correlation, transform.Raw},
		PHs:             []time.Duration{15 * 24 * time.Hour, 30 * 24 * time.Hour},
		Factors:         []float64{2, 3, 6, 10},
		ConstThresholds: []float64{0.8, 0.9, 0.99},
		Window:          15,
		ProfileWindowed: 25,
		ProfileRaw:      300,
	}
}

func sortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Technique != b.Technique {
			return a.Technique < b.Technique
		}
		if a.Transform != b.Transform {
			return a.Transform < b.Transform
		}
		if a.PH != b.PH {
			return a.PH < b.PH
		}
		return a.Setting < b.Setting
	})
}

// TestRunGridCachedMatchesReference is the tentpole contract: the
// transform-once cached grid must produce byte-identical cells (metrics
// and winning parameters, to exact float equality) to the pre-cache
// implementation that re-transforms per technique.
func TestRunGridCachedMatchesReference(t *testing.T) {
	spec := cacheSpec(t)

	ref, err := RunGridReference(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(ref.Cells) {
		t.Fatalf("cell count %d vs reference %d", len(got.Cells), len(ref.Cells))
	}
	sortCells(ref.Cells)
	sortCells(got.Cells)
	for i := range ref.Cells {
		if !reflect.DeepEqual(ref.Cells[i], got.Cells[i]) {
			t.Errorf("cell %d differs:\n  cached:    %+v\n  reference: %+v", i, got.Cells[i], ref.Cells[i])
		}
	}

	// The timing split must be recorded and sum back into the
	// backward-compatible totals.
	if len(got.TransformTiming) != len(spec.Transforms) {
		t.Errorf("TransformTiming entries = %d, want %d", len(got.TransformTiming), len(spec.Transforms))
	}
	for key, total := range got.Timing {
		want := got.TransformTiming[key.Transform] + got.ScoreTiming[key]
		if total != want {
			t.Errorf("Timing[%v] = %v, want TransformTiming+ScoreTiming = %v", key, total, want)
		}
	}
}

// newLegacyKernelDetector is NewDetector with the pre-optimisation fit
// kernels: TranAD's allocate-per-call training loop and XGBoost's exact
// (non-histogram) split search.
func newLegacyKernelDetector(t Technique, featureNames []string, seed int64) (detector.Detector, error) {
	switch t {
	case TranAD:
		cfg := shippedTranAD(seed)
		cfg.LegacyFitKernels = true
		return tranad.New(cfg), nil
	case XGBoost:
		cfg := shippedXGBoost(seed)
		cfg.LegacyFitKernels = true
		return regress.New(featureNames, cfg), nil
	default:
		return NewDetector(t, featureNames, seed)
	}
}

// TestRunGridKernelOraclesMatchDefaults holds the shipped detectors to
// their oracles at grid level: every cell (alarms, TP/FP, winning
// parameter) must be the same whichever kernel generation fitted and
// scored. The legacy kernels run where equality is guaranteed — TranAD
// anywhere, XGBoost where histogram binning is lossless (the short
// windowed profiles) — and TranAD's legacy scorer once more on a
// per-record kind, where it scores the most samples.
func TestRunGridKernelOraclesMatchDefaults(t *testing.T) {
	f := fleetsim.Generate(fleetsim.SmallConfig())
	for _, tc := range []struct {
		name        string
		techniques  []Technique
		transforms  []transform.Kind
		newDetector func(Technique, []string, int64) (detector.Detector, error)
	}{
		{"legacy-fit-kernels", []Technique{TranAD, XGBoost},
			[]transform.Kind{transform.Correlation, transform.MeanAgg}, newLegacyKernelDetector},
		{"legacy-score-raw", []Technique{TranAD},
			[]transform.Kind{transform.Raw}, newLegacyKernelDetector},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.name == "legacy-score-raw" {
				t.Skip("a minute under -race; the plain run checks the cells")
			}
			// The grid's own defaults, as the paper exhibits run it:
			// cacheSpec's short profiles saturate TranAD's cells.
			spec := GridSpec{
				Records:    f.Records,
				Events:     f.Events,
				Settings:   map[string][]string{"setting40": f.AllVehicleIDs(), "setting26": f.EventVehicleIDs()},
				Techniques: tc.techniques,
				Transforms: tc.transforms,
			}
			want, err := RunGrid(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.NewDetector = tc.newDetector
			got, err := RunGrid(spec)
			if err != nil {
				t.Fatal(err)
			}
			sortCells(want.Cells)
			sortCells(got.Cells)
			if !reflect.DeepEqual(want.Cells, got.Cells) {
				t.Errorf("oracle cells differ from the default kernels':\n  oracle:  %+v\n  default: %+v", got.Cells, want.Cells)
			}
		})
	}
}

// countingTransformer wraps a real transformer and counts constructions
// and Collect calls through shared atomic counters.
type countingTransformer struct {
	transform.Transformer
	collects *atomic.Int64
}

func (c *countingTransformer) Collect(r timeseries.Record) {
	c.collects.Add(1)
	c.Transformer.Collect(r)
}

// TestRunGridTransformOnce verifies the cache's core claim: each
// (transform kind, vehicle) stream is materialised exactly once no
// matter how many techniques consume it.
func TestRunGridTransformOnce(t *testing.T) {
	spec := cacheSpec(t)
	var constructions, collects atomic.Int64
	spec.NewTransformer = func(kind transform.Kind, window int) (transform.Transformer, error) {
		inner, err := transform.New(kind, window)
		if err != nil {
			return nil, err
		}
		constructions.Add(1)
		return &countingTransformer{Transformer: inner, collects: &collects}, nil
	}

	if _, err := RunGrid(spec); err != nil {
		t.Fatal(err)
	}
	vehicles, err := spec.vehicleUnion()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(spec.Transforms) * len(vehicles))
	if constructions.Load() != want {
		t.Errorf("transformer constructions = %d, want %d (kinds × vehicles, independent of %d techniques)",
			constructions.Load(), want, len(spec.Techniques))
	}
	firstCollects := collects.Load()
	if firstCollects == 0 {
		t.Fatal("counting transformer saw no records")
	}

	// Doubling the technique count must not add a single Collect call.
	constructions.Store(0)
	collects.Store(0)
	spec.Techniques = []Technique{ClosestPair, ClosestPair, Grand, Grand}
	if _, err := RunGrid(spec); err != nil {
		t.Fatal(err)
	}
	if constructions.Load() != want {
		t.Errorf("constructions with 4 techniques = %d, want %d", constructions.Load(), want)
	}
	if collects.Load() != firstCollects {
		t.Errorf("Collect calls changed with technique count: %d vs %d", collects.Load(), firstCollects)
	}
}

// TestRunGridParallelSweep exercises the concurrent sweep and detect
// fan-out under forced parallelism (the -race build of this test is the
// sweep's data-race gate, wired into make ci).
func TestRunGridParallelSweep(t *testing.T) {
	spec := cacheSpec(t)
	spec.Parallelism = 8
	spec.Factors = []float64{1, 2, 3, 4, 5, 6, 7, 8, 10, 14, 20}
	res, err := RunGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(spec.Techniques)*len(spec.Transforms)*len(spec.PHs)*len(spec.Settings) {
		t.Fatalf("unexpected cell count %d", len(res.Cells))
	}
	seq, err := RunGridReference(spec)
	if err != nil {
		t.Fatal(err)
	}
	sortCells(res.Cells)
	sortCells(seq.Cells)
	if !reflect.DeepEqual(res.Cells, seq.Cells) {
		t.Error("parallel sweep cells differ from sequential reference")
	}
}

// syntheticTraces builds a small trace set directly (no detectors) for
// the sweep-replay allocation test.
func syntheticTraces(vehicles, samples, channels int) []vehicleTrace {
	base := time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	out := make([]vehicleTrace, vehicles)
	for v := range out {
		tr := &core.Trace{
			SegCalib: []core.Calib{{
				Means: make([]float64, channels),
				Stds:  make([]float64, channels),
			}},
		}
		for c := 0; c < channels; c++ {
			tr.SegCalib[0].Means[c] = 0.2 * float64(c+1)
			tr.SegCalib[0].Stds[c] = 0.05
		}
		for i := 0; i < samples; i++ {
			scores := make([]float64, channels)
			for c := range scores {
				scores[c] = 0.2*float64(c+1) + 0.01*float64(i%7)
			}
			tr.Times = append(tr.Times, base.Add(time.Duration(i)*time.Minute))
			tr.Scores = append(tr.Scores, scores)
			tr.Segments = append(tr.Segments, 0)
		}
		out[v] = vehicleTrace{vehicleID: "veh", trace: tr}
	}
	return out
}

// TestSweepReplayZeroAlloc pins the restructured sweep inner loop: with
// the ring and alarm buffer reused and the floored stds precomputed, a
// replay pass that raises no alarms must not allocate at all, and an
// alarm-raising pass must match replayAlarmsDensity exactly.
func TestSweepReplayZeroAlloc(t *testing.T) {
	traces := syntheticTraces(3, 500, 4)
	const absFloor = 0.01
	segSD := precomputeSegSD(traces, absFloor)
	rep := newSweepReplayer(traces, segSD, false, 5, 15)

	// Equivalence at an alarm-raising parameter.
	for _, param := range []float64{0.0, 0.5, 3} {
		want := replayAlarmsDensity(traces, param, false, 5, 15, absFloor)
		got := rep.replay(param)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("param %v: replayer diverges from replayAlarmsDensity (%d vs %d alarms)",
				param, len(got), len(want))
		}
	}
	if len(rep.replay(0)) == 0 {
		t.Fatal("expected alarms at param 0; synthetic traces too quiet for the test to mean anything")
	}

	allocs := testing.AllocsPerRun(100, func() {
		rep.replay(1e18) // beyond every score: zero alarms
	})
	if allocs != 0 {
		t.Errorf("sweep replay allocated %.1f times per run, want 0", allocs)
	}

	// Constant-threshold path, same contract.
	crep := newSweepReplayer(traces, nil, true, 5, 15)
	want := replayAlarmsDensity(traces, 0.3, true, 5, 15, 0)
	if got := crep.replay(0.3); !reflect.DeepEqual(want, got) {
		t.Errorf("constant path diverges (%d vs %d alarms)", len(got), len(want))
	}
	allocs = testing.AllocsPerRun(100, func() {
		crep.replay(1e18)
	})
	if allocs != 0 {
		t.Errorf("constant sweep replay allocated %.1f times per run, want 0", allocs)
	}
}
