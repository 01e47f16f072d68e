package eval

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fitpool"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/transform"
)

// vehicleTrace pairs a vehicle with its scored trace.
type vehicleTrace struct {
	vehicleID string
	trace     *core.Trace
}

// TraceSet is the unit of evaluation: the score traces of one technique
// × transform over every vehicle of the spec's settings, with the
// calibration stds already floored. Scoring happens once, when the set
// is built; every threshold question — the grid's best cell per (PH,
// setting), Table 2's shared parameter, one parameter's alarms — is a
// replay over the traces, so none of them re-runs a detector.
type TraceSet struct {
	spec   *GridSpec
	tech   Technique
	kind   transform.Kind
	traces []vehicleTrace // in spec.vehicleUnion order
	// segSD[vehicle][segment][channel] is the calibration std floored
	// through thresholds.FloorStd with the kind's absolute floor; nil for
	// a constant-threshold technique.
	segSD [][][]float64
}

// CollectTraceSet transforms every vehicle in the union of spec.Settings
// once for the kind and scores the technique over the result.
func CollectTraceSet(spec GridSpec, tech Technique, kind transform.Kind) (*TraceSet, error) {
	spec.defaults()
	tf, err := collectTransformed(&spec, kind)
	if err != nil {
		return nil, err
	}
	return newTraceSet(&spec, tech, tf)
}

// newTraceSet replays one technique's detector over every vehicle's
// cached transformed trace, fanning the per-vehicle fits across the
// process-wide fitpool (bounded additionally by spec.Parallelism).
// Vehicles are independent: each fit gets its own detector instance,
// results and errors land in per-vehicle slots, and the cached sample
// slices are shared read-only (detectors never mutate their input or
// reference rows) — so the outcome is worker-count independent.
func newTraceSet(spec *GridSpec, tech Technique, tf *transformed) (*TraceSet, error) {
	traces := make([]vehicleTrace, len(tf.vehicles))
	errs := make([]error, len(tf.vehicles))
	fitpool.Run(len(tf.vehicles), spec.Parallelism, func(i int) {
		vt := tf.vehicles[i]
		tr := &core.Trace{}
		det, err := spec.newDetector(tech, tf.names)
		if err == nil {
			err = core.DetectOnTrace(vt.vehicleID, vt.tt, core.DetectConfig{
				Detector:      det,
				Thresholder:   thresholds.NewSelfTuning(3), // placeholder; thresholds are replayed offline
				ProfileLength: spec.profileFor(tf.kind),
				Trace:         tr,
			})
		}
		if err != nil {
			errs[i] = fmt.Errorf("eval: detect %s/%s on %s: %w", tech, tf.kind, vt.vehicleID, err)
			return
		}
		traces[i] = vehicleTrace{vehicleID: vt.vehicleID, trace: tr}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ts := &TraceSet{spec: spec, tech: tech, kind: tf.kind, traces: traces}
	if !tech.UsesConstantThreshold() {
		ts.segSD = precomputeSegSD(traces, transform.AbsFloor(tf.kind.String()))
	}
	return ts, nil
}

// replayer returns a fresh threshold replayer over the set.
func (ts *TraceSet) replayer() *sweepReplayer {
	return newSweepReplayer(ts.traces, ts.segSD, ts.tech.UsesConstantThreshold(), ts.spec.DensityM, ts.spec.DensityK)
}

// Alarms replays the traces under one threshold parameter, applying the
// spec's density persistence, the transform's absolute floor, and daily
// consolidation. Vehicles come in sorted order, each one's alarms in
// time order.
func (ts *TraceSet) Alarms(param float64) []detector.Alarm {
	return ConsolidateDaily(ts.replayer().replay(param))
}

// cellKey identifies one (PH, setting) evaluation cell during the sweep.
type cellKey struct {
	ph      time.Duration
	setting string
}

// sweep replays the technique's whole threshold sweep (spec.Factors, or
// spec.ConstThresholds for a constant-threshold technique) and scores
// every (setting, PH) cell under every parameter: metrics[i][c] is
// params[i] on cells[c], a sum of its setting's per-vehicle folds. Cells
// go by setting name, then spec.PHs order, so a reduction over the table
// never depends on map iteration. Parameters replay concurrently — each
// worker owns a sweepReplayer, the traces and floored stds are shared
// read-only — and land in their own row, so the table does not depend on
// the worker count either.
func (ts *TraceSet) sweep() (params []float64, cells []cellKey, metrics [][]Metrics) {
	spec := ts.spec
	params = spec.Factors
	if ts.tech.UsesConstantThreshold() {
		params = spec.ConstThresholds
	}
	settings := make([]string, 0, len(spec.Settings))
	for name := range spec.Settings {
		settings = append(settings, name)
	}
	sort.Strings(settings)
	for _, name := range settings {
		for _, ph := range spec.PHs {
			cells = append(cells, cellKey{ph, name})
		}
	}
	repairs := Repairs(spec.Events)

	metrics = make([][]Metrics, len(params))
	workers := spec.Parallelism
	if workers > len(params) {
		workers = len(params)
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := ts.replayer()
			for i := range idxCh {
				alarms := ConsolidateDaily(rep.replay(params[i]))
				counts := make([]map[string]Metrics, len(spec.PHs))
				for p, ph := range spec.PHs {
					counts[p] = byVehicle(alarms, repairs, ph)
				}
				row := make([]Metrics, 0, len(cells))
				for _, name := range settings {
					for p := range spec.PHs {
						row = append(row, sum(counts[p], spec.Settings[name]))
					}
				}
				metrics[i] = row
			}
		}()
	}
	for i := range params {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return params, cells, metrics
}

// BestCells returns, per (PH, setting), the sweep parameter with the
// best F0.5 and its metrics — one bar of Figures 4/5 each, and a row of
// Table 3. Ties go to the earlier parameter: the first strictly greater
// F0.5 in sweep order wins.
func (ts *TraceSet) BestCells() []Cell {
	params, cells, metrics := ts.sweep()
	out := make([]Cell, len(cells))
	for c, k := range cells {
		best := 0
		for i := range params {
			if metrics[i][c].F05 > metrics[best][c].F05 {
				best = i
			}
		}
		out[c] = Cell{
			Technique: ts.tech, Transform: ts.kind, PH: k.ph, Setting: k.setting,
			Best: metrics[best][c], BestParam: params[best],
		}
	}
	return out
}

// BestJointParam returns the sweep parameter maximising the mean F0.5
// across all (setting, PH) combinations — the paper's Table 2 uses "the
// same method parameters for all depicted results" — and every cell
// under it, by setting name then spec.PHs order, with that parameter as
// each cell's BestParam.
func (ts *TraceSet) BestJointParam() (float64, []Cell) {
	params, cells, metrics := ts.sweep()
	best, bestSum := 0, -1.0
	for i := range params {
		var sum float64
		for _, m := range metrics[i] {
			sum += m.F05
		}
		if sum > bestSum {
			best, bestSum = i, sum
		}
	}
	out := make([]Cell, len(cells))
	for c, k := range cells {
		out[c] = Cell{
			Technique: ts.tech, Transform: ts.kind, PH: k.ph, Setting: k.setting,
			Best: metrics[best][c], BestParam: params[best],
		}
	}
	return params[best], out
}

// precomputeSegSD floors each trace's per-segment calibration stds once,
// through the thresholds.FloorStd the live thresholder calibrates with,
// so the sweep inner loop is a fused multiply-add per channel instead of
// recomputing the floor for every (sample, factor) pair.
func precomputeSegSD(traces []vehicleTrace, absFloor float64) [][][]float64 {
	out := make([][][]float64, len(traces))
	for ti, vt := range traces {
		segs := make([][]float64, len(vt.trace.SegCalib))
		for si, calib := range vt.trace.SegCalib {
			sds := make([]float64, len(calib.Stds))
			for c := range calib.Stds {
				sds[c] = thresholds.FloorStd(calib.Stds[c], calib.Means[c], absFloor)
			}
			segs[si] = sds
		}
		out[ti] = segs
	}
	return out
}

// sweepReplayer replays one threshold parameter over a set of traces,
// reusing its density gate and alarm buffer across calls so the sweep
// inner loop allocates only when alarms actually fire (and then only to
// grow the buffer). Not safe for concurrent use; each sweep worker owns
// one.
type sweepReplayer struct {
	traces   []vehicleTrace
	segSD    [][][]float64 // nil when constant
	constant bool
	gate     thresholds.Gate
	out      []detector.Alarm
}

func newSweepReplayer(traces []vehicleTrace, segSD [][][]float64, constant bool, m, k int) *sweepReplayer {
	return &sweepReplayer{traces: traces, segSD: segSD, constant: constant, gate: thresholds.NewGate(m, k)}
}

// replay converts the traces into alarms under one threshold parameter:
// self-tuning (mean + param·pre-floored-std from the segment's
// calibration stats) or constant. An alarm fires on a violating sample
// the vehicle's density gate passes, the detect stage's rule. The
// returned slice is owned by the replayer and valid until the next
// call.
func (r *sweepReplayer) replay(param float64) []detector.Alarm {
	r.out = r.out[:0]
	for ti := range r.traces {
		vt := &r.traces[ti]
		tr := vt.trace
		r.gate.Reset()
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
					th := thresholds.Level(calib.Means[c], param, sds[c])
					if s > th {
						violChan, violScore, violTh = c, s, th
						break
					}
				}
			}
			if r.gate.Admit(violChan >= 0) {
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
