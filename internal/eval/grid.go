package eval

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fitpool"
	"github.com/navarchos/pdm/internal/fleet"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
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
		return nil, fmt.Errorf("eval: RunGrid: no vehicles in any setting")
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
	// — the repository's Table 1 equivalent. With the transform-once
	// cache, each entry is TransformTiming[kind] + ScoreTiming[key], so
	// totals stay comparable across RunGrid and RunGridReference.
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

// vehicleTrace pairs a vehicle with its scored trace.
type vehicleTrace struct {
	vehicleID string
	trace     *core.Trace
}

// vehicleTransformed pairs a vehicle with its cached transformed stream.
type vehicleTransformed struct {
	vehicleID string
	tt        *core.TransformedTrace
}

// RunGrid executes the full comparative grid in two stages. Stage one
// materialises every vehicle's transformed stream exactly once per
// transform kind on the sharded fleet engine (transformed samples plus
// profile-reset boundaries — all a detector ever sees). Stage two fans
// the techniques out over the cached traces with a worker pool, then
// replays the threshold sweep offline in parallel and keeps the
// best-F0.5 configuration per (PH, setting) cell — mirroring the paper's
// use of "multiple factors regarding the thresholding technique".
// Results are bit-identical to RunGridReference, which recomputes the
// transform for every technique.
func RunGrid(spec GridSpec) (*GridResult, error) {
	spec.defaults()
	vehicles, err := spec.vehicleUnion()
	if err != nil {
		return nil, err
	}

	result := &GridResult{
		Timing:          map[TimingKey]time.Duration{},
		TransformTiming: map[transform.Kind]time.Duration{},
		ScoreTiming:     map[TimingKey]time.Duration{},
	}

	// Stage 1: transform once per (kind, vehicle).
	cache := make(map[transform.Kind][]vehicleTransformed, len(spec.Transforms))
	names := make(map[transform.Kind][]string, len(spec.Transforms))
	for _, kind := range spec.Transforms {
		if _, done := cache[kind]; done {
			continue
		}
		start := time.Now()
		tts, err := collectTransformed(&spec, kind, vehicles)
		if err != nil {
			return nil, err
		}
		result.TransformTiming[kind] = time.Since(start)
		cache[kind] = tts
		// Feature names are metadata, not a stream pass: one throwaway
		// transformer, deliberately not via the NewTransformer hook.
		t, err := transform.New(kind, spec.Window)
		if err != nil {
			return nil, err
		}
		names[kind] = t.FeatureNames()
	}

	// Stage 2: detect per technique over the cached traces.
	for _, tech := range spec.Techniques {
		for _, kind := range spec.Transforms {
			start := time.Now()
			traces, err := detectTraces(&spec, tech, kind, names[kind], cache[kind])
			if err != nil {
				return nil, err
			}
			key := TimingKey{tech, kind}
			result.ScoreTiming[key] = time.Since(start)
			result.Timing[key] = result.TransformTiming[kind] + result.ScoreTiming[key]

			sweep := spec.Factors
			if tech.UsesConstantThreshold() {
				sweep = spec.ConstThresholds
			}
			cells, err := bestCells(&spec, tech, kind, traces, sweep, absFloorFor(spec.AbsFloor, kind))
			if err != nil {
				return nil, err
			}
			result.Cells = append(result.Cells, cells...)
		}
	}
	return result, nil
}

// RunGridReference is the pre-cache implementation kept as a correctness
// oracle and as the baseline leg of the grid-throughput benchmark: every
// technique × transform re-runs the full raw stream (transform included)
// through streaming pipelines. Cells are identical to RunGrid's up to
// ordering.
func RunGridReference(spec GridSpec) (*GridResult, error) {
	spec.defaults()
	vehicles, err := spec.vehicleUnion()
	if err != nil {
		return nil, err
	}

	result := &GridResult{Timing: map[TimingKey]time.Duration{}}
	for _, tech := range spec.Techniques {
		for _, kind := range spec.Transforms {
			start := time.Now()
			traces, err := collectTraces(&spec, tech, kind, vehicles)
			if err != nil {
				return nil, err
			}
			result.Timing[TimingKey{tech, kind}] = time.Since(start)

			sweep := spec.Factors
			if tech.UsesConstantThreshold() {
				sweep = spec.ConstThresholds
			}
			cells, err := bestCellsSequential(&spec, tech, kind, traces, sweep, absFloorFor(spec.AbsFloor, kind))
			if err != nil {
				return nil, err
			}
			result.Cells = append(result.Cells, cells...)
		}
	}
	return result, nil
}

// collectTransformed materialises every vehicle's transformed stream for
// one kind on a sharded fleet.Engine of core.TraceCollectors. This is
// the only pass over the raw records per transform kind; detectors
// replay the cached output.
func collectTransformed(spec *GridSpec, kind transform.Kind, vehicles []string) ([]vehicleTransformed, error) {
	out := make([]vehicleTransformed, len(vehicles))
	byID := make(map[string]*core.TransformedTrace, len(vehicles))
	for i, v := range vehicles {
		tt := &core.TransformedTrace{}
		out[i] = vehicleTransformed{vehicleID: v, tt: tt}
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
	return out, nil
}

// detectTraces replays one technique's detector over every vehicle's
// cached transformed trace, fanning the per-vehicle fits across the
// process-wide fitpool (bounded additionally by spec.Parallelism).
// Vehicles are independent: each fit gets its own detector instance,
// results and errors land in per-vehicle slots, and the cached sample
// slices are shared read-only (detectors never mutate their input or
// reference rows) — so the outcome is worker-count independent.
func detectTraces(spec *GridSpec, tech Technique, kind transform.Kind, featureNames []string, tts []vehicleTransformed) ([]vehicleTrace, error) {
	traces := make([]vehicleTrace, len(tts))
	errs := make([]error, len(tts))
	bound := spec.Parallelism
	if bound < 1 {
		bound = 1
	}
	fitpool.Run(len(tts), bound, func(i int) {
		vt := tts[i]
		tr := &core.Trace{}
		det, err := spec.newDetector(tech, featureNames)
		if err == nil {
			err = core.DetectOnTrace(vt.vehicleID, vt.tt, core.DetectConfig{
				Detector:      det,
				Thresholder:   thresholds.NewSelfTuning(3), // placeholder; sweep is replayed offline
				ProfileLength: spec.profileFor(kind),
				Trace:         tr,
			})
		}
		if err != nil {
			errs[i] = fmt.Errorf("eval: detect %s/%s on %s: %w", tech, kind, vt.vehicleID, err)
			return
		}
		traces[i] = vehicleTrace{vehicleID: vt.vehicleID, trace: tr}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return traces, nil
}

// collectTraces runs one technique × transform over every vehicle on a
// sharded fleet.Engine, returning per-vehicle score traces. Transformer
// and detector construction errors propagate through the engine instead
// of crashing the process; the alarm stream is irrelevant here (the
// threshold sweep is replayed offline from the traces), so the engine
// runs in drop mode.
func collectTraces(spec *GridSpec, tech Technique, kind transform.Kind, vehicles []string) ([]vehicleTrace, error) {
	traces := make([]vehicleTrace, len(vehicles))
	byID := make(map[string]*core.Trace, len(vehicles))
	for i, v := range vehicles {
		tr := &core.Trace{}
		traces[i] = vehicleTrace{vehicleID: v, trace: tr}
		byID[v] = tr
	}
	eng, err := fleet.NewEngine(fleet.Config{
		NewConfig: func(vehicleID string) (core.Config, error) {
			tr, ok := byID[vehicleID]
			if !ok {
				return core.Config{}, fleet.ErrSkipVehicle
			}
			t, err := spec.newTransformer(kind)
			if err != nil {
				return core.Config{}, err
			}
			det, err := spec.newDetector(tech, t.FeatureNames())
			if err != nil {
				return core.Config{}, err
			}
			wf := timeseries.NewWarmupFilter(5, 20*time.Minute)
			return core.Config{
				Transformer:   t,
				Detector:      det,
				Thresholder:   thresholds.NewSelfTuning(3), // placeholder; sweep is replayed offline
				ProfileLength: spec.profileFor(kind),
				ResetPolicy:   spec.ResetPolicy,
				Filter:        wf.Keep,
				FilterState:   wf,
				Trace:         tr,
			}, nil
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
	return traces, nil
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

// cellKey identifies one (PH, setting) evaluation cell during the sweep.
type cellKey struct {
	ph      time.Duration
	setting string
}

// bestCells replays the threshold sweep over the traces in parallel and
// returns the best cell per (PH, setting). Per-parameter metrics are
// computed concurrently (each worker owns a sweepReplayer; the
// pre-floored calibration stds are shared read-only), then reduced
// serially in sweep order so tie-breaking — first strictly greater F0.5
// wins — is identical to the sequential implementation.
func bestCells(spec *GridSpec, tech Technique, kind transform.Kind, traces []vehicleTrace, sweep []float64, absFloor float64) ([]Cell, error) {
	constant := tech.UsesConstantThreshold()
	var segSD [][][]float64
	if !constant {
		segSD = precomputeSegSD(traces, absFloor)
	}
	failures := make(map[string][]obd.Event, len(spec.Settings))
	for setting, vehicles := range spec.Settings {
		failures[setting] = FilterEventsByVehicles(spec.Events, vehicles)
	}

	perParam := make([]map[cellKey]Metrics, len(sweep))
	workers := spec.Parallelism
	if workers > len(sweep) {
		workers = len(sweep)
	}
	if workers < 1 {
		workers = 1
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := newSweepReplayer(traces, segSD, constant, spec.DensityM, spec.DensityK)
			for i := range idxCh {
				alarms := ConsolidateDaily(rep.replay(sweep[i]))
				res := make(map[cellKey]Metrics, len(spec.Settings)*len(spec.PHs))
				for setting, vehicles := range spec.Settings {
					settingAlarms := FilterByVehicles(alarms, vehicles)
					for _, ph := range spec.PHs {
						res[cellKey{ph, setting}] = Evaluate(settingAlarms, failures[setting], ph)
					}
				}
				perParam[i] = res
			}
		}()
	}
	for i := range sweep {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	best := map[cellKey]*Cell{}
	for i, param := range sweep {
		for k, m := range perParam[i] {
			cur := best[k]
			if cur == nil || m.F05 > cur.Best.F05 {
				best[k] = &Cell{
					Technique: tech, Transform: kind, PH: k.ph, Setting: k.setting,
					Best: m, BestParam: param,
				}
			}
		}
	}
	out := make([]Cell, 0, len(best))
	for _, c := range best {
		out = append(out, *c)
	}
	return out, nil
}

// bestCellsSequential is the original single-threaded sweep, kept as the
// oracle behind RunGridReference.
func bestCellsSequential(spec *GridSpec, tech Technique, kind transform.Kind, traces []vehicleTrace, sweep []float64, absFloor float64) ([]Cell, error) {
	best := map[cellKey]*Cell{}
	for _, param := range sweep {
		alarms := replayAlarmsDensity(traces, param, tech.UsesConstantThreshold(), spec.DensityM, spec.DensityK, absFloor)
		alarms = ConsolidateDaily(alarms)
		for setting, vehicles := range spec.Settings {
			settingAlarms := FilterByVehicles(alarms, vehicles)
			failures := FilterEventsByVehicles(spec.Events, vehicles)
			for _, ph := range spec.PHs {
				m := Evaluate(settingAlarms, failures, ph)
				k := cellKey{ph, setting}
				cur := best[k]
				if cur == nil || m.F05 > cur.Best.F05 {
					best[k] = &Cell{
						Technique: tech, Transform: kind, PH: ph, Setting: setting,
						Best: m, BestParam: param,
					}
				}
			}
		}
	}
	out := make([]Cell, 0, len(best))
	for _, c := range best {
		out = append(out, *c)
	}
	return out, nil
}

// precomputeSegSD flattens each trace's per-segment calibration stds
// through thresholds.FloorStd and the absolute floor once, so the sweep
// inner loop is a fused multiply-add per channel instead of recomputing
// the floor chain for every (sample, factor) pair.
func precomputeSegSD(traces []vehicleTrace, absFloor float64) [][][]float64 {
	out := make([][][]float64, len(traces))
	for ti, vt := range traces {
		segs := make([][]float64, len(vt.trace.SegCalib))
		for si, calib := range vt.trace.SegCalib {
			sds := make([]float64, len(calib.Stds))
			for c := range calib.Stds {
				sd := thresholds.FloorStd(calib.Stds[c], calib.Means[c])
				if sd < absFloor {
					sd = absFloor
				}
				sds[c] = sd
			}
			segs[si] = sds
		}
		out[ti] = segs
	}
	return out
}

// sweepReplayer replays one threshold parameter over a set of traces,
// reusing its violation ring and alarm buffer across calls so the sweep
// inner loop allocates only when alarms actually fire (and then only to
// grow the buffer). Not safe for concurrent use; each sweep worker owns
// one.
type sweepReplayer struct {
	traces   []vehicleTrace
	segSD    [][][]float64 // nil when constant
	constant bool
	m, k     int
	ring     []bool
	out      []detector.Alarm
}

func newSweepReplayer(traces []vehicleTrace, segSD [][][]float64, constant bool, m, k int) *sweepReplayer {
	if m < 1 {
		m = 1
	}
	if k < m {
		k = m
	}
	return &sweepReplayer{
		traces:   traces,
		segSD:    segSD,
		constant: constant,
		m:        m,
		k:        k,
		ring:     make([]bool, k),
	}
}

// replay converts the traces into alarms under one threshold parameter:
// self-tuning (mean + param·pre-floored-std from the segment's
// calibration stats) or constant. The returned slice is owned by the
// replayer and valid until the next call.
func (r *sweepReplayer) replay(param float64) []detector.Alarm {
	r.out = r.out[:0]
	for ti := range r.traces {
		vt := &r.traces[ti]
		tr := vt.trace
		for i := range r.ring {
			r.ring[i] = false
		}
		pos, count := 0, 0
		for i, scores := range tr.Scores {
			seg := tr.Segments[i]
			if seg < 0 || seg >= len(tr.SegCalib) {
				continue
			}
			violChan := -1
			var violScore, violTh float64
			if r.constant {
				for c, s := range scores {
					if s > param {
						violChan, violScore, violTh = c, s, param
						break
					}
				}
			} else {
				calib := &tr.SegCalib[seg]
				sds := r.segSD[ti][seg]
				for c, s := range scores {
					if c >= len(calib.Means) {
						continue
					}
					th := calib.Means[c] + param*sds[c]
					if s > th {
						violChan, violScore, violTh = c, s, th
						break
					}
				}
			}
			viol := violChan >= 0
			if r.ring[pos] {
				count--
			}
			r.ring[pos] = viol
			if viol {
				count++
			}
			pos = (pos + 1) % r.k
			if viol && count >= r.m {
				r.out = append(r.out, detector.Alarm{
					VehicleID: vt.vehicleID,
					Time:      tr.Times[i],
					Channel:   violChan,
					Score:     violScore,
					Threshold: violTh,
				})
			}
		}
	}
	return r.out
}

// replayAlarms converts traces into alarms under one threshold
// parameter: self-tuning (mean + factor·std from the segment's
// calibration stats) or constant.
func replayAlarms(traces []vehicleTrace, param float64, constant bool) []detector.Alarm {
	return replayAlarmsDensity(traces, param, constant, 1, 1, 0)
}

// replayAlarmsDensity is replayAlarms with density persistence: an alarm
// fires on samples where at least m of the vehicle's last k scored
// samples (including the current one) violate their thresholds.
func replayAlarmsDensity(traces []vehicleTrace, param float64, constant bool, m, k int, absFloor float64) []detector.Alarm {
	if m < 1 {
		m = 1
	}
	if k < m {
		k = m
	}
	var out []detector.Alarm
	ring := make([]bool, k)
	for _, vt := range traces {
		tr := vt.trace
		for i := range ring {
			ring[i] = false
		}
		pos, count := 0, 0
		for i, scores := range tr.Scores {
			seg := tr.Segments[i]
			if seg < 0 || seg >= len(tr.SegCalib) {
				continue
			}
			calib := tr.SegCalib[seg]
			violChan := -1
			var violScore, violTh float64
			for c, s := range scores {
				var th float64
				if constant {
					th = param
				} else {
					if c >= len(calib.Means) {
						continue
					}
					sd := thresholds.FloorStd(calib.Stds[c], calib.Means[c])
					if sd < absFloor {
						sd = absFloor
					}
					th = calib.Means[c] + param*sd
				}
				if s > th {
					violChan, violScore, violTh = c, s, th
					break
				}
			}
			viol := violChan >= 0
			if ring[pos] {
				count--
			}
			ring[pos] = viol
			if viol {
				count++
			}
			pos = (pos + 1) % k
			if viol && count >= m {
				out = append(out, detector.Alarm{
					VehicleID: vt.vehicleID,
					Time:      tr.Times[i],
					Channel:   violChan,
					Score:     violScore,
					Threshold: violTh,
				})
			}
		}
	}
	return out
}
