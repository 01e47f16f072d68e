package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/navarchos/pdm"
	"github.com/navarchos/pdm/internal/eval"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/mat"
	"github.com/navarchos/pdm/internal/wire"
)

// scoreVerifyVehicles is how many vehicles score_heavy re-runs serially
// as its reference.
const scoreVerifyVehicles = 4

// scoreInputs is score_heavy's input: fleet40 as one stream of 512-item
// frames, and the serial reference for its first four vehicles.
type scoreInputs struct {
	fleet  *fleetsim.Fleet
	frames *frameSet
	// want are the alarms core.RunVehicle raises for the reference
	// vehicles, sorted; refIDs names those vehicles.
	want   []alarmKey
	refIDs map[string]bool
	genS   float64
	encS   float64
}

func setupScore(cfg *runCfg) (*scoreInputs, error) {
	in := &scoreInputs{refIDs: map[string]bool{}}
	start := time.Now()
	in.fleet = fleetsim.Generate(fleetConfig(cfg.workload, cfg.scale, cfg.seed))
	in.genS = time.Since(start).Seconds()
	start = time.Now()
	parts, _, err := encodePartitions(in.fleet.Records, in.fleet.Events, burstFrameItems, 1)
	if err != nil {
		return nil, err
	}
	in.encS = time.Since(start).Seconds()
	in.frames = parts[0]

	newConfig := tranadPipeline(cfg.seed, nil)
	streams := byVehicle(in.fleet.Records, in.fleet.Events)
	if len(streams) > scoreVerifyVehicles {
		streams = streams[:scoreVerifyVehicles]
	}
	for _, v := range streams {
		in.refIDs[v.id] = true
		var cfgErr error
		alarms, err := pdm.RunVehicle(v.id, v.records, v.events, func() pdm.PipelineConfig {
			c, err := newConfig(v.id)
			cfgErr = err
			return c
		})
		if err == nil {
			err = cfgErr
		}
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", v.id, err)
		}
		for _, a := range alarms {
			in.want = append(in.want, keyOf(a))
		}
	}
	sortKeys(in.want)
	return in, nil
}

// scorePass admits every frame through wire.Decoder and
// Engine.IngestBatch from one producer, closes the engine, and checks
// what came out. Timed from the first IngestBatch until the last alarm
// is delivered.
func scorePass(cfg *runCfg, in *scoreInputs, out *outcome) (time.Duration, error) {
	eng, err := pdm.NewFleetEngine(pdm.FleetEngineConfig{NewConfig: tranadPipeline(cfg.seed, nil), Shards: cfg.nproc})
	if err != nil {
		return 0, err
	}
	var got []alarmKey
	alarms := 0
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for a := range eng.Alarms() {
			alarms++
			if in.refIDs[a.VehicleID] {
				got = append(got, keyOf(a))
			}
		}
	}()
	var dec wire.Decoder
	var b wire.Batch
	var admitErr error
	start := time.Now()
	for _, fr := range in.frames.frames {
		b.Reset()
		if _, err := dec.DecodeInto(fr, &b); err != nil {
			admitErr = err
			break
		}
		out.attempted++
		if err := eng.IngestBatch(b.Records, b.Events); err != nil {
			out.failed++
			admitErr = err
			break
		}
	}
	closeErr := eng.Close()
	<-drained
	wall := time.Since(start)
	if admitErr != nil {
		return wall, fmt.Errorf("score_heavy admission: %w", admitErr)
	}

	st := eng.Stats()
	sortKeys(got)
	switch {
	case closeErr != nil:
		out.verify(fmt.Errorf("engine error: %w", closeErr))
	case eng.Err() != nil:
		out.verify(fmt.Errorf("engine error: %w", eng.Err()))
	case st.Drops != 0:
		out.verify(fmt.Errorf("%d alarms dropped", st.Drops))
	case st.RecordsIn != uint64(in.frames.nRec):
		out.verify(fmt.Errorf("engine processed %d of %d records", st.RecordsIn, in.frames.nRec))
	default:
		out.verify(diffAlarms(got, in.want))
	}
	fmt.Fprintf(cfg.log, "pass: %.3fs, %.0f records/s, %d of %d records scored, %d alarms\n",
		wall.Seconds(), float64(in.frames.nRec)/wall.Seconds(), st.SamplesScored, st.RecordsIn, alarms)
	return wall, nil
}

// runScore is score_heavy.
func runScore(_ context.Context, cfg *runCfg) (*outcome, error) {
	out := newOutcome()
	var in *scoreInputs
	setupS, err := cfg.repeatSetup(func() error {
		var err error
		in, err = setupScore(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.note("records=%d frames=%d producers=1 shards=%d reference_vehicles=%d reference_alarms=%d",
		in.frames.nRec, len(in.frames.frames), cfg.nproc, len(in.refIDs), len(in.want))

	var walls []float64
	for measured := 0.0; len(walls) == 0 || (!cfg.trace && measured < cfg.seconds); {
		wall, err := scorePass(cfg, in, out)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		measured += wall.Seconds()
	}
	out.note("passes=%d (records_per_s is the median pass)", len(walls))
	if !cfg.trace {
		out.metrics["setup_s"] = setupS
		out.metrics["records_per_s"] = float64(in.frames.nRec) / median(walls)
		return out, nil
	}

	m := out.metrics
	m["fleetsim.generate_s"], m["wire.encode_s"] = in.genS, in.encS
	li := &layerInputs{
		fleet: in.fleet, frames: in.frames,
		newConfig:   func(o *pdm.Observer) func(string) (pdm.PipelineConfig, error) { return tranadPipeline(cfg.seed, o) },
		shards:      cfg.nproc,
		legVehicles: scoreVerifyVehicles,
		quick:       cfg.scale == scaleSmoke,
	}
	tr := newTracer(0)
	if err := li.measureLayers(m, tr, cfg.log); err != nil {
		return nil, err
	}
	return out, cfg.writeTrace(tr)
}

// gridCell is one eval.Cell in the committed fixture's shape. Floats
// travel as JSON numbers, which round-trip exactly.
type gridCell struct {
	Technique string  `json:"technique"`
	Transform string  `json:"transform"`
	PHDays    float64 `json:"ph_days"`
	Setting   string  `json:"setting"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	Failures  int     `json:"failures"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	F05       float64 `json:"f05"`
	BestParam float64 `json:"best_param"`
}

// gridFixture is testdata/grid_small_seed1.json. TranAD's minibatch
// reductions use FMA where the CPU has it, so the cells are pinned per
// SIMD class and compared only on a machine of the same class.
type gridFixture struct {
	SIMD  string     `json:"simd"`
	Cells []gridCell `json:"cells"`
}

func canonicalCells(res *eval.GridResult) []gridCell {
	cells := make([]gridCell, len(res.Cells))
	for i, c := range res.Cells {
		cells[i] = gridCell{c.Technique.String(), c.Transform.String(), c.PH.Hours() / 24, c.Setting,
			c.Best.TP, c.Best.FP, c.Best.TotalFailures, c.Best.Precision, c.Best.Recall, c.Best.F1, c.Best.F05, c.BestParam}
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		switch {
		case a.Technique != b.Technique:
			return a.Technique < b.Technique
		case a.Transform != b.Transform:
			return a.Transform < b.Transform
		case a.PHDays != b.PHDays:
			return a.PHDays < b.PHDays
		default:
			return a.Setting < b.Setting
		}
	})
	return cells
}

func diffCells(got, want []gridCell, what string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d cells, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: cell %d differs:\n  got  %+v\n  want %+v", what, i, got[i], want[i])
		}
	}
	return nil
}

const gridCells = 64

func gridFixturePath(root string) string {
	return filepath.Join(root, "benchmark", "testdata", "grid_small_seed1.json")
}

// runGrid is grid_eval.
func runGrid(_ context.Context, cfg *runCfg) (*outcome, error) {
	out := newOutcome()
	var f *fleetsim.Fleet
	var genS float64
	setupS, err := cfg.repeatSetup(func() error {
		start := time.Now()
		f = fleetsim.Generate(fleetConfig(cfg.workload, cfg.scale, cfg.seed))
		genS = time.Since(start).Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.note("records=%d vehicles=%d cells=%d parallelism=%d", len(f.Records), len(f.Vehicles), gridCells, cfg.nproc)

	minPasses := 3
	if cfg.scale == scaleSmoke {
		minPasses = 2
	}
	if cfg.trace {
		minPasses = 1
	}
	var walls []float64
	var first []gridCell
	var last *eval.GridResult
	tr := newTracer(0)
	for measured := 0.0; len(walls) < minPasses || (!cfg.trace && measured < cfg.seconds); {
		sp := tr.begin("eval.run_grid", -1, uint64(len(walls)+1))
		start := time.Now()
		res, err := eval.RunGrid(gridSpec(f, cfg.nproc))
		wall := time.Since(start)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("RunGrid: %w", err)
		}
		cells := canonicalCells(res)
		out.attempted += gridCells
		if len(cells) < gridCells {
			out.failed += gridCells - len(cells)
		}
		if first == nil {
			first = cells
			if len(cells) != gridCells {
				out.verify(fmt.Errorf("grid has %d cells, want %d", len(cells), gridCells))
			}
		} else {
			out.verify(diffCells(cells, first, fmt.Sprintf("pass %d vs pass 0", len(walls))))
		}
		walls = append(walls, wall.Seconds())
		measured += wall.Seconds()
		last = res
		fmt.Fprintf(cfg.log, "pass %d: %.3fs\n", len(walls)-1, wall.Seconds())
	}

	fixture := gridFixturePath(cfg.root)
	pinned := cfg.scale == scaleFull && cfg.seed == 1
	switch {
	case cfg.writeFixture:
		if !pinned {
			return nil, fmt.Errorf("-write-fixture pins seed 1 at full scale only")
		}
		b, err := json.MarshalIndent(gridFixture{SIMD: mat.SIMDMode(), Cells: first}, "", " ")
		if err == nil {
			err = os.WriteFile(fixture, append(b, '\n'), 0o644)
		}
		if err != nil {
			return nil, err
		}
		out.note("wrote %s", fixture)
	case pinned:
		b, err := os.ReadFile(fixture)
		if err != nil {
			return nil, err
		}
		var want gridFixture
		if err := json.Unmarshal(b, &want); err != nil {
			return nil, fmt.Errorf("%s: %w", fixture, err)
		}
		if want.SIMD == mat.SIMDMode() {
			out.verify(diffCells(first, want.Cells, "seed 1 vs committed fixture"))
		} else {
			out.note("fixture pinned on simd=%s, this machine is %s: cells compared across passes only", want.SIMD, mat.SIMDMode())
		}
	}

	out.note("passes=%d (records_per_s is the median pass)", len(walls))
	if !cfg.trace {
		out.metrics["setup_s"] = setupS
		out.metrics["records_per_s"] = float64(len(f.Records)) / median(walls)
		return out, nil
	}

	m := out.metrics
	var transformS, scoreS float64
	for _, d := range last.TransformTiming {
		transformS += d.Seconds()
	}
	perTech := map[string]float64{}
	for k, d := range last.ScoreTiming {
		scoreS += d.Seconds()
		perTech[k.Technique.String()] += d.Seconds()
	}
	gridS := walls[len(walls)-1]
	m["eval.grid_s"], m["eval.transform_s"], m["eval.score_s"] = gridS, transformS, scoreS
	m["eval.sweep_s"] = gridS - transformS - scoreS
	for _, t := range eval.PaperTechniques() {
		m["eval."+t.String()+"_s"] = perTech[t.String()]
	}
	m["fleetsim.generate_s"] = genS
	start := time.Now()
	parts, _, err := encodePartitions(f.Records, f.Events, burstFrameItems, 1)
	if err != nil {
		return nil, err
	}
	m["wire.encode_s"] = time.Since(start).Seconds()
	li := &layerInputs{fleet: f, frames: parts[0], newConfig: func(o *pdm.Observer) func(string) (pdm.PipelineConfig, error) { return servePipeline(10, o) },
		shards: cfg.nproc,
		quick:  cfg.scale == scaleSmoke}
	if err := li.measureLayers(m, tr, cfg.log); err != nil {
		return nil, err
	}
	return out, cfg.writeTrace(tr)
}
