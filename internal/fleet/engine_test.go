package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/detector/closestpair"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// testConfig is the paper's complete solution at test scale: correlation
// transform, closest-pair detection, self-tuning thresholds.
func testConfig() core.Config {
	tr, err := transform.New(transform.Correlation, 12)
	if err != nil {
		panic(err)
	}
	wf := timeseries.NewWarmupFilter(5, 20*time.Minute)
	return core.Config{
		Transformer:   tr,
		Detector:      closestpair.New(tr.FeatureNames()),
		Thresholder:   thresholds.NewSelfTuning(4),
		ProfileLength: 45,
		Filter:        wf.Keep,
		FilterState:   wf,
		DensityM:      3,
		DensityK:      10,
	}
}

var (
	testFleetOnce sync.Once
	testFleet     *fleetsim.Fleet
)

func smallFleet() *fleetsim.Fleet {
	testFleetOnce.Do(func() {
		cfg := fleetsim.SmallConfig()
		cfg.NumVehicles = 6
		cfg.Days = 120
		cfg.RecordedVehicles = 5
		cfg.RecordedFailures = 2
		cfg.HiddenFailures = 1
		testFleet = fleetsim.Generate(cfg)
	})
	return testFleet
}

// alarmKey orders alarms deterministically for comparison.
func sortAlarms(a []detector.Alarm) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].VehicleID != a[j].VehicleID {
			return a[i].VehicleID < a[j].VehicleID
		}
		if !a[i].Time.Equal(a[j].Time) {
			return a[i].Time.Before(a[j].Time)
		}
		return a[i].Channel < a[j].Channel
	})
}

// serialAlarms replays every vehicle through core.RunVehicle.
func serialAlarms(t *testing.T, f *fleetsim.Fleet) []detector.Alarm {
	t.Helper()
	var out []detector.Alarm
	for _, v := range f.AllVehicleIDs() {
		a, err := core.RunVehicle(v, f.Records, f.Events, testConfig)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a...)
	}
	sortAlarms(out)
	return out
}

// drainAlarms collects the engine's alarms in the background; the
// returned function waits for channel close and hands the slice back.
func drainAlarms(e *Engine) func() []detector.Alarm {
	var out []detector.Alarm
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range e.Alarms() {
			out = append(out, a)
		}
	}()
	return func() []detector.Alarm {
		<-done
		return out
	}
}

// requireSameAlarms asserts bit-exact alarm identity: same count, and
// per alarm the same vehicle, instant, channel, feature, and
// Float64bits-equal score and threshold.
func requireSameAlarms(t *testing.T, label string, got, want []detector.Alarm) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d alarms, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.VehicleID != w.VehicleID || !g.Time.Equal(w.Time) || g.Channel != w.Channel ||
			g.Feature != w.Feature ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Threshold) != math.Float64bits(w.Threshold) {
			t.Fatalf("%s: alarm %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// engineAlarms replays the whole fleet through an engine with the given
// shard count and batch size.
func engineAlarms(t *testing.T, f *fleetsim.Fleet, shards, batch int) ([]detector.Alarm, EngineStats) {
	t.Helper()
	e, err := NewEngine(Config{
		NewConfig: func(string) (core.Config, error) { return testConfig(), nil },
		Shards:    shards,
		batchSize: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := drainAlarms(e)
	if err := e.Replay(f.Records, f.Events); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	out := wait()
	sortAlarms(out)
	return out, e.Stats()
}

// TestEngineMatchesSerialReplay is the determinism guarantee: for any
// shard count the engine yields exactly the alarms of a serial
// core.RunVehicle replay of every vehicle.
func TestEngineMatchesSerialReplay(t *testing.T) {
	f := smallFleet()
	want := serialAlarms(t, f)
	if len(want) == 0 {
		t.Fatal("test fleet produced no alarms; determinism check is vacuous")
	}
	for _, shards := range []int{1, 2, 3, 8} {
		for _, batch := range []int{1, 7, 64} {
			got, stats := engineAlarms(t, f, shards, batch)
			requireSameAlarms(t, fmt.Sprintf("shards=%d batch=%d", shards, batch), got, want)
			if stats.RecordsIn != uint64(len(f.Records)) {
				t.Errorf("shards=%d: RecordsIn = %d, want %d", shards, stats.RecordsIn, len(f.Records))
			}
			if stats.EventsIn != uint64(len(f.Events)) {
				t.Errorf("shards=%d: EventsIn = %d, want %d", shards, stats.EventsIn, len(f.Events))
			}
			if stats.Alarms != uint64(len(want)) {
				t.Errorf("shards=%d: stats.Alarms = %d, want %d", shards, stats.Alarms, len(want))
			}
			if stats.Vehicles != len(f.AllVehicleIDs()) {
				t.Errorf("shards=%d: Vehicles = %d, want %d", shards, stats.Vehicles, len(f.AllVehicleIDs()))
			}
			if stats.SamplesScored == 0 {
				t.Errorf("shards=%d: SamplesScored = 0", shards)
			}
			if stats.Drops != 0 {
				t.Errorf("shards=%d: Drops = %d, want 0", shards, stats.Drops)
			}
		}
	}
}

// TestEngineSkipVehicle checks ErrSkipVehicle excludes vehicles without
// failing the run.
func TestEngineSkipVehicle(t *testing.T) {
	f := smallFleet()
	keep := f.AllVehicleIDs()[0]
	e, err := NewEngine(Config{
		NewConfig: func(v string) (core.Config, error) {
			if v != keep {
				return core.Config{}, ErrSkipVehicle
			}
			return testConfig(), nil
		},
		Shards:     3,
		DropAlarms: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(f.Records, f.Events); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Vehicles != 1 {
		t.Errorf("Vehicles = %d, want 1 (only %s kept)", st.Vehicles, keep)
	}
	if st.RecordsIn != uint64(len(f.Records)) {
		t.Errorf("RecordsIn = %d, want %d (skipped records still counted)", st.RecordsIn, len(f.Records))
	}
}

// TestEngineConfigError checks a NewConfig failure is sticky and
// reported, not a crash.
func TestEngineConfigError(t *testing.T) {
	f := smallFleet()
	boom := errors.New("boom")
	e, err := NewEngine(Config{
		NewConfig:  func(string) (core.Config, error) { return core.Config{}, boom },
		Shards:     2,
		DropAlarms: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(f.Records[:500], nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want wrapped boom", err)
	}
	if e.Stats().Vehicles != 0 {
		t.Error("no pipeline should have been built")
	}
}

// TestEngineIngestAfterClose checks post-Close ingestion errors cleanly
// on both producers, for records and for events.
func TestEngineIngestAfterClose(t *testing.T) {
	e, err := NewEngine(Config{
		NewConfig: func(string) (core.Config, error) { return testConfig(), nil },
		Shards:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	recs := []timeseries.Record{{VehicleID: "v"}}
	evs := []obd.Event{{VehicleID: "v"}}
	if err := e.IngestBatch(recs, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("IngestBatch(record) after Close = %v, want ErrClosed", err)
	}
	if err := e.IngestBatch(nil, evs); !errors.Is(err, ErrClosed) {
		t.Errorf("IngestBatch(event) after Close = %v, want ErrClosed", err)
	}
	if err := e.Replay(recs, evs); !errors.Is(err, ErrClosed) {
		t.Errorf("Replay after Close = %v, want ErrClosed", err)
	}
}

// TestEngineConcurrentIngestion is the race-detector stress test: many
// producers feed disjoint vehicles concurrently while Stats is polled,
// and every record must be accounted for.
func TestEngineConcurrentIngestion(t *testing.T) {
	const (
		producers           = 8
		vehiclesPerProducer = 4
		recordsPerVehicle   = 400
	)
	// A raw-transform config with a short profile so scoring starts
	// well within each vehicle's stream.
	stressCfg := func(string) (core.Config, error) {
		tr, err := transform.New(transform.Raw, 0)
		if err != nil {
			return core.Config{}, err
		}
		return core.Config{
			Transformer:   tr,
			Detector:      closestpair.New(tr.FeatureNames()),
			Thresholder:   thresholds.NewSelfTuning(4),
			ProfileLength: 40,
			Filter:        func(*timeseries.Record) bool { return true },
		}, nil
	}
	// The shards build each vehicle's deferred-fit core.Pipeline through
	// this factory, which keeps them so their scored samples can be summed
	// against Stats once the engine is closed.
	var (
		pipesMu sync.Mutex
		pipes   []*core.Pipeline
	)
	newPipeline := func(id string) (Handler, error) {
		cfg, err := stressCfg(id)
		if err != nil {
			return nil, err
		}
		p, err := core.NewPipeline(id, cfg)
		if err != nil {
			return nil, err
		}
		pipesMu.Lock()
		pipes = append(pipes, p)
		pipesMu.Unlock()
		return p, nil
	}
	e, err := NewEngine(Config{
		NewHandler: newPipeline,
		Shards:     4,
		batchSize:  16,
		QueueDepth: 8,
		DropAlarms: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2023, 5, 1, 8, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < recordsPerVehicle; i++ {
				for v := 0; v < vehiclesPerProducer; v++ {
					id := "veh-" + string(rune('a'+p)) + "-" + string(rune('a'+v))
					var vals [obd.NumPIDs]float64
					vals[obd.EngineRPM] = 1500 + float64(i%40)*25
					vals[obd.Speed] = 40 + float64(i%40)
					vals[obd.CoolantTemp] = 88
					vals[obd.IntakeTemp] = 25
					vals[obd.MAPIntake] = 40 + float64(i%17)
					vals[obd.MAFAirFlowRate] = 10 + float64(i%13)
					if err := e.IngestBatch([]timeseries.Record{{
						VehicleID: id,
						Time:      base.Add(time.Duration(i) * time.Minute),
						Values:    vals,
					}}, nil); err != nil {
						t.Error(err)
						return
					}
					if i%97 == 0 {
						if err := e.IngestBatch(nil, []obd.Event{{
							VehicleID: id,
							Time:      base.Add(time.Duration(i) * time.Minute),
							Type:      obd.EventService,
						}}); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(p)
	}
	// Poll Stats concurrently so the race detector exercises the
	// snapshot path against live shards.
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				_ = e.Stats()
			}
		}
	}()
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	close(stopPoll)
	pollWG.Wait()
	st := e.Stats()
	wantRecords := uint64(producers * vehiclesPerProducer * recordsPerVehicle)
	if st.RecordsIn != wantRecords {
		t.Errorf("RecordsIn = %d, want %d", st.RecordsIn, wantRecords)
	}
	if st.Vehicles != producers*vehiclesPerProducer {
		t.Errorf("Vehicles = %d, want %d", st.Vehicles, producers*vehiclesPerProducer)
	}
	if st.SamplesScored == 0 {
		t.Error("no samples scored under stress")
	}
	if len(pipes) != producers*vehiclesPerProducer {
		t.Fatalf("built %d pipelines, want %d", len(pipes), producers*vehiclesPerProducer)
	}
	var fromPipelines uint64
	for _, p := range pipes {
		if _, ok := Handler(p).(FitDeferrer); !ok {
			t.Fatal("core.Pipeline is no longer a FitDeferrer: this test no longer covers deferred fits")
		}
		fromPipelines += p.ScoredSamples()
	}
	if fromPipelines != st.SamplesScored {
		t.Errorf("pipeline scored sum %d != stats %d", fromPipelines, st.SamplesScored)
	}
}
