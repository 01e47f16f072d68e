package pdm_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/navarchos/pdm"
)

// Quick start: generate a small synthetic fleet, run the paper's
// complete solution (correlation transform + closest-pair detection +
// self-tuning thresholds) on one vehicle, and print the alarms it
// raises.
func ExampleNewDefaultPipeline() {
	// A deterministic synthetic fleet standing in for real FMS data.
	fleet := pdm.NewFleet(pdm.SmallFleetConfig())

	// Pick a vehicle with a recorded failure so there is something to
	// find (preferring the MAF fault, whose correlation break is the
	// starkest).
	var vehicle string
	for _, ev := range fleet.Events {
		if ev.Type == pdm.EventRepair {
			if vehicle == "" {
				vehicle = ev.VehicleID
			}
			if ev.Note == "MAF sensor drift" {
				vehicle = ev.VehicleID
				break
			}
		}
	}
	fmt.Printf("monitoring %s (%d fleet records, %d events)\n\n",
		vehicle, len(fleet.Records), len(fleet.Events))

	// The paper's Algorithm 1, assembled by the library.
	pipeline, err := pdm.NewDefaultPipeline(vehicle)
	if err != nil {
		log.Fatal(err)
	}

	// Stream records and events chronologically.
	var alarms []pdm.Alarm
	evIdx := 0
	for _, rec := range fleet.Records {
		for evIdx < len(fleet.Events) && !fleet.Events[evIdx].Time.After(rec.Time) {
			pipeline.HandleEvent(fleet.Events[evIdx])
			evIdx++
		}
		a, err := pipeline.HandleRecord(rec)
		if err != nil {
			log.Fatal(err)
		}
		alarms = append(alarms, a...)
	}

	// One alert per day is what an operator would see.
	daily := pdm.ConsolidateDaily(alarms)
	fmt.Printf("%d raw threshold violations -> %d day-level alarms:\n", len(alarms), len(daily))
	for _, a := range daily {
		fmt.Printf("  %s  %-30s score %.4f (threshold %.4f)\n",
			a.Time.Format("2006-01-02"), a.Feature, a.Score, a.Threshold)
	}

	// Score against the vehicle's recorded repairs with the paper's
	// protocol.
	m := pdm.Evaluate(daily, vehicleEvents(fleet.Events, vehicle), 30*24*time.Hour)
	fmt.Printf("\nPH=30d evaluation: precision %.2f, recall %.2f, F0.5 %.2f (TP=%d FP=%d)\n",
		m.Precision, m.Recall, m.F05, m.TP, m.FP)
	// Output:
	// monitoring veh-02 (107657 fleet records, 37 events)
	//
	// 9 raw threshold violations -> 4 day-level alarms:
	//   2023-04-20  corr(rpm,MAFairFlowRate)       score 0.5360 (threshold 0.1623)
	//   2023-04-21  corr(rpm,MAFairFlowRate)       score 1.0744 (threshold 0.1623)
	//   2023-04-22  corr(rpm,MAFairFlowRate)       score 0.5570 (threshold 0.1623)
	//   2023-04-24  corr(rpm,MAFairFlowRate)       score 0.4829 (threshold 0.1623)
	//
	// PH=30d evaluation: precision 1.00, recall 1.00, F0.5 1.00 (TP=1 FP=0)
}

// vehicleEvents returns the events of one vehicle: a one-vehicle run is
// scored against its own repairs, not the fleet's.
func vehicleEvents(events []pdm.Event, vehicleID string) []pdm.Event {
	var own []pdm.Event
	for _, ev := range events {
		if ev.VehicleID == vehicleID {
			own = append(own, ev)
		}
	}
	return own
}

// Fleet monitor: an FMS-style streaming monitor over a whole fleet,
// built on the sharded concurrent engine. Vehicles are hashed to
// shards, each shard goroutine owns its vehicles' pipelines, and alarms
// fan in on a single channel — the way an operations dashboard would
// consume them. The alarms are the same at any shard count.
func ExampleNewFleetEngine() {
	fleet := pdm.NewFleet(pdm.SmallFleetConfig())
	fmt.Printf("fleet: %d vehicles, %d records, %d events\n\n",
		len(fleet.Vehicles), len(fleet.Records), len(fleet.Events))

	eng, err := pdm.NewFleetEngine(pdm.FleetEngineConfig{
		NewConfig: func(string) (pdm.PipelineConfig, error) {
			return pdm.DefaultPipelineConfig()
		},
		Shards: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Drain the fan-in alarm channel while the replay runs. Alarms from
	// different shards arrive interleaved; collect and order them for
	// the operator log.
	var alarms []pdm.Alarm
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range eng.Alarms() {
			alarms = append(alarms, a)
		}
	}()

	if err := eng.Replay(fleet.Records, fleet.Events); err != nil {
		log.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	<-done

	sort.Slice(alarms, func(i, j int) bool {
		if !alarms[i].Time.Equal(alarms[j].Time) {
			return alarms[i].Time.Before(alarms[j].Time)
		}
		return alarms[i].VehicleID < alarms[j].VehicleID
	})

	// Log at most one alarm per vehicle-day (operator view).
	lastAlarmDay := map[string]string{}
	alarmDays := 0
	for _, a := range alarms {
		day := a.Time.Format("2006-01-02")
		if lastAlarmDay[a.VehicleID] == day {
			continue
		}
		lastAlarmDay[a.VehicleID] = day
		alarmDays++
		fmt.Printf("%s  %-8s ALARM %-30s score %.4f > %.4f\n",
			day, a.VehicleID, a.Feature, a.Score, a.Threshold)
	}

	stats := eng.Stats()
	fmt.Printf("\nprocessed %d records / %d events across %d vehicles on %d shards\n",
		stats.RecordsIn, stats.EventsIn, stats.Vehicles, len(stats.Shards))
	fmt.Printf("scored %d samples, raised %d raw alarms (%d vehicle-day alarms)\n",
		stats.SamplesScored, stats.Alarms, alarmDays)
	for _, ev := range fleet.Events {
		if ev.Type == pdm.EventRepair {
			fmt.Printf("ground truth: %s repaired on %s (%s)\n",
				ev.VehicleID, ev.Time.Format("2006-01-02"), ev.Note)
		}
	}
	// Output:
	// fleet: 8 vehicles, 107657 records, 37 events
	//
	// 2023-04-13  veh-04   ALARM corr(speed,mapIntake)          score 0.1960 > 0.1786
	// 2023-04-20  veh-02   ALARM corr(rpm,MAFairFlowRate)       score 0.5360 > 0.1623
	// 2023-04-21  veh-02   ALARM corr(rpm,MAFairFlowRate)       score 1.0744 > 0.1623
	// 2023-04-22  veh-02   ALARM corr(rpm,MAFairFlowRate)       score 0.5570 > 0.1623
	// 2023-04-24  veh-02   ALARM corr(rpm,MAFairFlowRate)       score 0.4829 > 0.1623
	//
	// processed 107657 records / 37 events across 8 vehicles on 2 shards
	// scored 3344 samples, raised 10 raw alarms (5 vehicle-day alarms)
	// ground truth: veh-04 repaired on 2023-04-23 (intake manifold leak)
	// ground truth: veh-02 repaired on 2023-04-24 (MAF sensor drift)
	// ground truth: veh-00 repaired on 2023-04-26 (thermostat stuck open)
}

// zscoreDetector scores each feature by |x - mean| / std over the
// reference profile — the simplest possible per-feature model, useful as
// a baseline for anything fancier.
type zscoreDetector struct {
	names []string
	mean  []float64
	std   []float64
}

func (d *zscoreDetector) Name() string { return "zscore" }

func (d *zscoreDetector) Fit(ref [][]float64) error {
	if len(ref) == 0 {
		return errors.New("zscore: empty reference")
	}
	dim := len(ref[0])
	d.mean = make([]float64, dim)
	d.std = make([]float64, dim)
	for c := 0; c < dim; c++ {
		var sum float64
		for _, row := range ref {
			sum += row[c]
		}
		m := sum / float64(len(ref))
		var ss float64
		for _, row := range ref {
			diff := row[c] - m
			ss += diff * diff
		}
		d.mean[c] = m
		d.std[c] = math.Sqrt(ss / float64(len(ref)))
	}
	return nil
}

func (d *zscoreDetector) Score(x []float64) ([]float64, error) {
	if d.mean == nil {
		return nil, errors.New("zscore: not fitted")
	}
	out := make([]float64, len(x))
	for c, v := range x {
		if d.std[c] > 0 {
			out[c] = math.Abs(v-d.mean[c]) / d.std[c]
		}
	}
	return out, nil
}

func (d *zscoreDetector) Channels() int { return len(d.mean) }

func (d *zscoreDetector) ChannelNames() []string { return d.names }

// Custom detector: the framework's step 3 is an interface, so plugging
// in your own scoring model is a few dozen lines. zscoreDetector is a
// per-feature z-score model, run here inside the standard pipeline. It
// has no snapshot methods: such a pipeline runs, it just cannot be
// checkpointed.
func ExampleDetector() {
	fleet := pdm.NewFleet(pdm.SmallFleetConfig())

	var vehicle string
	for _, ev := range fleet.Events {
		if ev.Type == pdm.EventRepair {
			vehicle = ev.VehicleID
			break
		}
	}

	// The complete solution with the z-score model in place of closest-pair.
	cfg, err := pdm.DefaultPipelineConfig()
	if err != nil {
		log.Fatal(err)
	}
	custom := &zscoreDetector{names: cfg.Transformer.FeatureNames()}
	cfg.Detector = custom
	cfg.Thresholder = pdm.NewSelfTuningThreshold(8)

	alarms, err := pdm.RunVehicle(vehicle, fleet.Records, fleet.Events, func() pdm.PipelineConfig { return cfg })
	if err != nil {
		log.Fatal(err)
	}
	daily := pdm.ConsolidateDaily(alarms)
	fmt.Printf("custom %q detector on %s: %d day-level alarms\n", custom.Name(), vehicle, len(daily))
	for _, a := range daily {
		fmt.Printf("  %s  %-30s z=%.2f\n", a.Time.Format("2006-01-02"), a.Feature, a.Score)
	}
	m := pdm.Evaluate(daily, vehicleEvents(fleet.Events, vehicle), 30*24*time.Hour)
	fmt.Printf("PH=30d: precision %.2f recall %.2f F0.5 %.2f\n", m.Precision, m.Recall, m.F05)
	// Output:
	// custom "zscore" detector on veh-04: 0 day-level alarms
	// PH=30d: precision 0.00 recall 0.00 F0.5 0.00
}

// Observability: instrument a small fleet replay with one shared
// metrics registry and observer, a bounded alarm journal and the debug
// endpoint, then scrape the run's own /metrics and /fleet over HTTP, as
// a Prometheus scraper or an on-call engineer with curl would.
//
// The observer is threaded through two seams: PipelineConfig.Observer
// instruments every per-vehicle pipeline (stage latency, profile
// resets/refills, score distributions, journaled alarms) and
// FleetEngineConfig.Observer instruments the engine itself (per-shard
// queue depth and counters, batch latency, checkpoint duration). A nil
// observer disables all of it with zero overhead, and instrumentation
// never changes which alarms fire.
func ExampleStartDebugServer() {
	// One registry + observer shared by the engine and every pipeline;
	// the journal keeps the last 64 alarms with their full context.
	registry := pdm.NewMetricsRegistry()
	journal := pdm.NewAlarmJournal(64)
	observer := pdm.NewObserver(registry, pdm.ObserverConfig{Journal: journal})

	eng, err := pdm.NewFleetEngine(pdm.FleetEngineConfig{
		NewConfig: func(string) (pdm.PipelineConfig, error) {
			cfg, err := pdm.DefaultPipelineConfig()
			cfg.Observer = observer
			return cfg, err
		},
		Observer: observer,
		Shards:   2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The debug endpoint serves the registry at /metrics, the engine and
	// journal at /fleet, and Go's standard /debug/pprof/* and
	// /debug/vars; port 0 picks a free port.
	srv, err := pdm.StartDebugServer("127.0.0.1:0", pdm.DebugConfig{
		Registry:    registry,
		Journal:     journal,
		FleetStatus: func() any { return eng.Stats() },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Replay a small synthetic fleet through the instrumented engine.
	fleet := pdm.NewFleet(pdm.SmallFleetConfig())
	var alarms []pdm.Alarm
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range eng.Alarms() {
			alarms = append(alarms, a)
		}
	}()
	if err := eng.Replay(fleet.Records, fleet.Events); err != nil {
		log.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	<-done
	fmt.Printf("replayed %d records, raised %d alarms (journal holds the last %d)\n\n",
		len(fleet.Records), len(alarms), journal.Total())

	// Scrape our own /metrics, as `curl http://host:port/metrics` would,
	// and show the pipeline/fleet families.
	fmt.Println("curl /metrics (excerpt):")
	for _, line := range strings.Split(get(srv.Addr(), "/metrics"), "\n") {
		if strings.Contains(line, "pdm_pipeline_alarms_total") ||
			strings.Contains(line, "pdm_fleet_vehicles") ||
			strings.Contains(line, "pdm_pipeline_score_seconds_count") ||
			strings.Contains(line, "pdm_fleet_shard_records_total") {
			fmt.Println(" ", line)
		}
	}

	// And /fleet: engine status plus the journal — each alarm carries
	// vehicle, score, live threshold and Ref fill level. Shards journal
	// concurrently, so order the entries by time before taking the last
	// three.
	var status struct {
		Journal []struct {
			Time      time.Time `json:"time"`
			Vehicle   string    `json:"vehicle"`
			Score     float64   `json:"score"`
			Threshold float64   `json:"threshold"`
			RefLen    int       `json:"ref_len"`
		} `json:"journal"`
	}
	if err := json.Unmarshal([]byte(get(srv.Addr(), "/fleet?n=64")), &status); err != nil {
		log.Fatal(err)
	}
	entries := status.Journal
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].Time.Equal(entries[j].Time) {
			return entries[i].Time.Before(entries[j].Time)
		}
		return entries[i].Vehicle < entries[j].Vehicle
	})
	fmt.Println("\ncurl /fleet (last journal entries):")
	for _, e := range entries[max(0, len(entries)-3):] {
		// A map encodes with its keys sorted.
		b, err := json.Marshal(map[string]any{
			"vehicle": e.Vehicle, "score": e.Score, "threshold": e.Threshold, "ref_len": e.RefLen,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(" ", string(b))
	}
	// Output:
	// replayed 107657 records, raised 10 alarms (journal holds the last 10)
	//
	// curl /metrics (excerpt):
	//   pdm_pipeline_score_seconds_count 49
	//   # HELP pdm_pipeline_alarms_total Alarms emitted by instrumented pipelines (before day-level consolidation).
	//   # TYPE pdm_pipeline_alarms_total counter
	//   pdm_pipeline_alarms_total 10
	//   # HELP pdm_fleet_vehicles Vehicles with an active handler across all shards.
	//   # TYPE pdm_fleet_vehicles gauge
	//   pdm_fleet_vehicles 8
	//   # HELP pdm_fleet_shard_records_total Raw records processed per shard.
	//   # TYPE pdm_fleet_shard_records_total counter
	//   pdm_fleet_shard_records_total{shard="0"} 53924
	//   pdm_fleet_shard_records_total{shard="1"} 53733
	//
	// curl /fleet (last journal entries):
	//   {"ref_len":45,"score":0.4697440346097757,"threshold":0.46291775500441523,"vehicle":"veh-02"}
	//   {"ref_len":45,"score":0.3968285048871045,"threshold":0.16234000833875062,"vehicle":"veh-02"}
	//   {"ref_len":45,"score":0.48292038962288275,"threshold":0.16234000833875062,"vehicle":"veh-02"}
}

// get fetches a path from the debug endpoint and returns its body.
func get(addr, path string) string {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}
