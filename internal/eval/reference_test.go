package eval

import (
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fleet"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// The reference evaluation: the implementation RunGrid and TraceSet
// replaced, kept verbatim so the tests can hold the shipped path to it
// cell for cell (TestRunGridCachedMatchesReference,
// TestRunGridParallelSweep, TestSweepReplayZeroAlloc). It streams every
// technique × transform through full pipelines on its own engine and
// replays thresholds one parameter at a time, recomputing the floored
// std per sample. Nothing outside the tests may call it.

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
