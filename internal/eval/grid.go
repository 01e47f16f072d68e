package eval

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fleet"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// GridSpec describes a full comparative evaluation over technique ×
// transformation × prediction horizon × setting, with a threshold sweep
// per cell (the paper's Figures 4 and 5 protocol).
type GridSpec struct {
	Records []timeseries.Record
	Events  []obd.Event

	// Settings maps a setting name ("setting40", "setting26") to the
	// vehicle IDs it evaluates.
	Settings map[string][]string

	Techniques []Technique
	Transforms []transform.Kind
	PHs        []time.Duration

	// Factors is the self-tuning threshold sweep (closest-pair, TranAD,
	// XGBoost).
	Factors []float64
	// ConstThresholds is the constant-threshold sweep for Grand's
	// bounded deviation score.
	ConstThresholds []float64

	// Window is the tumbling-window length (records) for windowed
	// transforms.
	Window int
	// ProfileWindowed / ProfileRaw are Ref sizes in transformed samples
	// for windowed and per-record transforms respectively.
	ProfileWindowed int
	ProfileRaw      int

	// DensityM / DensityK implement density-based alarm persistence: an
	// alarm fires when at least M of the last K scored samples violate
	// their thresholds (defaults 4 of 12). Degradation preceding a
	// failure violates frequently but not strictly consecutively —
	// windows alternate between ride regimes with different fault
	// visibility — while healthy excursions are isolated; a density
	// criterion separates the two where strict consecutive-run rules
	// fail both.
	DensityM int
	DensityK int

	// AbsFloor is an absolute per-unit-of-factor floor added under the
	// calibration std when replaying self-tuning thresholds, i.e.
	// threshold = mean + factor·max(std, floors..., AbsFloor). For
	// bounded feature spaces (correlations in [-1, 1]) it encodes the
	// minimum deviation considered physically meaningful; 0 disables it.
	// When negative or unset it defaults per transform kind (0.01 for
	// correlation/histogram/spectral, 0 otherwise).
	AbsFloor float64

	// NewTransformer overrides transformer construction when non-nil
	// (instrumentation and tests — e.g. counting how many streams are
	// materialised). The default is transform.New(kind, Window).
	NewTransformer func(kind transform.Kind, window int) (transform.Transformer, error)

	// NewDetector overrides detector construction when non-nil (the
	// kernel-equivalence test swaps in the legacy-kernel oracles here).
	// The default is the package-level NewDetector.
	NewDetector func(t Technique, featureNames []string, seed int64) (detector.Detector, error)

	ResetPolicy core.ResetPolicy
	Seed        int64
	// Parallelism caps concurrent per-vehicle runs (default: NumCPU).
	Parallelism int
}

func (s *GridSpec) defaults() {
	if len(s.Techniques) == 0 {
		s.Techniques = PaperTechniques()
	}
	if len(s.Transforms) == 0 {
		s.Transforms = transform.PaperKinds()
	}
	if len(s.PHs) == 0 {
		s.PHs = []time.Duration{15 * 24 * time.Hour, 30 * 24 * time.Hour}
	}
	if len(s.Factors) == 0 {
		s.Factors = []float64{2, 3, 4, 5, 7, 10, 14, 20, 28, 40, 60}
	}
	if len(s.ConstThresholds) == 0 {
		s.ConstThresholds = []float64{0.6, 0.8, 0.9, 0.95, 0.99, 0.999}
	}
	if s.Window <= 0 {
		s.Window = 12
	}
	if s.ProfileWindowed <= 0 {
		s.ProfileWindowed = 45
	}
	if s.ProfileRaw <= 0 {
		s.ProfileRaw = 900
	}
	if s.DensityM <= 0 {
		s.DensityM = 5
	}
	if s.DensityK < s.DensityM {
		s.DensityK = 15
		if s.DensityK < s.DensityM {
			s.DensityK = s.DensityM
		}
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Parallelism <= 0 {
		s.Parallelism = runtime.NumCPU()
	}
}

// profileFor returns the Ref size for a transform kind.
func (s *GridSpec) profileFor(k transform.Kind) int {
	switch k {
	case transform.Raw, transform.Delta:
		return s.ProfileRaw
	default:
		return s.ProfileWindowed
	}
}

// newDetector builds one detector instance for a technique.
func (s *GridSpec) newDetector(t Technique, featureNames []string) (detector.Detector, error) {
	if s.NewDetector != nil {
		return s.NewDetector(t, featureNames, s.Seed)
	}
	return NewDetector(t, featureNames, s.Seed)
}

// newTransformer builds one transformer instance for a kind.
func (s *GridSpec) newTransformer(kind transform.Kind) (transform.Transformer, error) {
	if s.NewTransformer != nil {
		return s.NewTransformer(kind, s.Window)
	}
	return transform.New(kind, s.Window)
}

// vehicleUnion returns the sorted union of all settings' vehicles.
func (s *GridSpec) vehicleUnion() ([]string, error) {
	union := map[string]bool{}
	for _, vs := range s.Settings {
		for _, v := range vs {
			union[v] = true
		}
	}
	if len(union) == 0 {
		return nil, fmt.Errorf("eval: no vehicles in any setting")
	}
	vehicles := make([]string, 0, len(union))
	for v := range union {
		vehicles = append(vehicles, v)
	}
	sort.Strings(vehicles)
	return vehicles, nil
}

// Cell is one bar of Figures 4/5: the best threshold's metrics for a
// (technique, transform, PH, setting) combination.
type Cell struct {
	Technique Technique
	Transform transform.Kind
	PH        time.Duration
	Setting   string
	Best      Metrics
	BestParam float64 // the winning threshold factor / constant
}

// TimingKey identifies a technique × transform timing entry (Table 1).
type TimingKey struct {
	Technique Technique
	Transform transform.Kind
}

// GridResult is the full outcome of RunGrid.
type GridResult struct {
	Cells []Cell
	// Timing holds the wall-clock duration of the full scoring pass
	// (all vehicles, transform + fit + score) per technique × transform
	// — the repository's Table 1 equivalent. Each entry is
	// TransformTiming[kind] + ScoreTiming[key]: what the cell would cost
	// run on its own.
	Timing map[TimingKey]time.Duration
	// TransformTiming is the wall-clock duration of materialising every
	// vehicle's transformed stream once per transform kind.
	TransformTiming map[transform.Kind]time.Duration
	// ScoreTiming is the detect-only (fit + score over cached
	// transformed traces) duration per technique × transform.
	ScoreTiming map[TimingKey]time.Duration
}

// Cell returns the cell for the given coordinates, or nil.
func (g *GridResult) Cell(t Technique, k transform.Kind, ph time.Duration, setting string) *Cell {
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Technique == t && c.Transform == k && c.PH == ph && c.Setting == setting {
			return c
		}
	}
	return nil
}

// vehicleTransformed pairs a vehicle with its cached transformed stream.
type vehicleTransformed struct {
	vehicleID string
	tt        *core.TransformedTrace
}

// transformed is one transform kind's pass over the fleet: each
// vehicle's cached stream, in vehicleUnion order, and the feature names
// a detector on that kind is built with.
type transformed struct {
	kind     transform.Kind
	names    []string
	vehicles []vehicleTransformed
}

// RunGrid executes the full comparative grid. Per transform kind it
// materialises every vehicle's transformed stream exactly once on the
// sharded fleet engine (transformed samples plus profile-reset
// boundaries — all a detector ever sees); per technique × kind it then
// builds the TraceSet over that cached pass and keeps its BestCells: the
// best-F0.5 threshold per (PH, setting), mirroring the paper's use of
// "multiple factors regarding the thresholding technique". The tests
// hold the cells bit-identical to a reference that re-streams the raw
// records for every technique (reference_test.go).
func RunGrid(spec GridSpec) (*GridResult, error) {
	spec.defaults()
	result := &GridResult{
		Timing:          map[TimingKey]time.Duration{},
		TransformTiming: map[transform.Kind]time.Duration{},
		ScoreTiming:     map[TimingKey]time.Duration{},
	}

	passes := make(map[transform.Kind]*transformed, len(spec.Transforms))
	for _, kind := range spec.Transforms {
		if passes[kind] != nil {
			continue
		}
		start := time.Now()
		tf, err := collectTransformed(&spec, kind)
		if err != nil {
			return nil, err
		}
		result.TransformTiming[kind] = time.Since(start)
		passes[kind] = tf
	}

	for _, tech := range spec.Techniques {
		for _, kind := range spec.Transforms {
			start := time.Now()
			ts, err := newTraceSet(&spec, tech, passes[kind])
			if err != nil {
				return nil, err
			}
			key := TimingKey{tech, kind}
			result.ScoreTiming[key] = time.Since(start)
			result.Timing[key] = result.TransformTiming[kind] + result.ScoreTiming[key]
			result.Cells = append(result.Cells, ts.BestCells()...)
		}
	}
	return result, nil
}

// collectTransformed materialises the transformed stream of every
// vehicle in the union of spec.Settings for one kind, on a sharded
// fleet.Engine of core.TraceCollectors. This is the only pass over the
// raw records per transform kind; detectors replay the cached output.
func collectTransformed(spec *GridSpec, kind transform.Kind) (*transformed, error) {
	vehicles, err := spec.vehicleUnion()
	if err != nil {
		return nil, err
	}
	// Feature names are metadata, not a stream pass: one throwaway
	// transformer, deliberately not via the NewTransformer hook.
	named, err := transform.New(kind, spec.Window)
	if err != nil {
		return nil, err
	}
	tf := &transformed{kind: kind, names: named.FeatureNames(), vehicles: make([]vehicleTransformed, len(vehicles))}
	byID := make(map[string]*core.TransformedTrace, len(vehicles))
	for i, v := range vehicles {
		tt := &core.TransformedTrace{}
		tf.vehicles[i] = vehicleTransformed{vehicleID: v, tt: tt}
		byID[v] = tt
	}
	eng, err := fleet.NewEngine(fleet.Config{
		NewHandler: func(vehicleID string) (fleet.Handler, error) {
			tt, ok := byID[vehicleID]
			if !ok {
				return nil, fleet.ErrSkipVehicle
			}
			t, err := spec.newTransformer(kind)
			if err != nil {
				return nil, err
			}
			wf := timeseries.NewWarmupFilter(5, 20*time.Minute)
			return core.NewTraceCollector(vehicleID, core.TransformConfig{
				Transformer: t,
				Filter:      wf.Keep,
				FilterState: wf,
				ResetPolicy: spec.ResetPolicy,
			}, tt)
		},
		Shards:     spec.Parallelism,
		DropAlarms: true,
	})
	if err != nil {
		return nil, err
	}
	if err := eng.Replay(spec.Records, spec.Events); err != nil {
		eng.Close()
		return nil, err
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	return tf, nil
}

// absFloorFor resolves the absolute std floor for a transform kind.
func absFloorFor(requested float64, kind transform.Kind) float64 {
	if requested > 0 {
		return requested
	}
	switch kind {
	case transform.Correlation, transform.Histogram, transform.Spectral:
		return 0.01
	default:
		return 0
	}
}
