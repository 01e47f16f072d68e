package fleet

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// handlerStream is a small two-vehicle stream with one reset each.
func handlerStream() ([]timeseries.Record, []obd.Event) {
	base := time.Date(2023, 6, 1, 7, 0, 0, 0, time.UTC)
	var records []timeseries.Record
	for i := 0; i < 400; i++ {
		for _, v := range []string{"veh-1", "veh-2"} {
			var vals [obd.NumPIDs]float64
			vals[obd.EngineRPM] = 1500 + float64(i%29)*17
			vals[obd.Speed] = 45 + float64(i%13)
			vals[obd.CoolantTemp] = 88
			vals[obd.IntakeTemp] = 22
			vals[obd.MAPIntake] = 40 + float64(i%7)
			vals[obd.MAFAirFlowRate] = 10 + float64(i%5)
			records = append(records, timeseries.Record{
				VehicleID: v, Time: base.Add(time.Duration(i) * time.Minute), Values: vals,
			})
		}
	}
	events := []obd.Event{
		{VehicleID: "veh-1", Time: base.Add(200 * time.Minute), Type: obd.EventService},
		{VehicleID: "veh-2", Time: base.Add(250 * time.Minute), Type: obd.EventRepair},
	}
	return records, events
}

// TestEngineNewHandlerTraceCollection drives core.TraceCollectors through
// the sharded engine and checks the cached traces are identical to a
// serial single-vehicle transform pass, at any shard count.
func TestEngineNewHandlerTraceCollection(t *testing.T) {
	records, events := handlerStream()

	serial := func(vehicleID string) *core.TransformedTrace {
		tr, err := transform.New(transform.Correlation, 12)
		if err != nil {
			t.Fatal(err)
		}
		out := &core.TransformedTrace{}
		col, err := core.NewTraceCollector(vehicleID, core.TransformConfig{
			Transformer: tr,
			Filter:      func(*timeseries.Record) bool { return true },
		}, out)
		if err != nil {
			t.Fatal(err)
		}
		err = core.Merged(vehicleID, records, events,
			func(ev obd.Event) error { col.HandleEvent(ev); return nil },
			func(r timeseries.Record) error { _, err := col.HandleRecord(r); return err })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := map[string]*core.TransformedTrace{"veh-1": serial("veh-1"), "veh-2": serial("veh-2")}

	for _, shards := range []int{1, 4} {
		var mu sync.Mutex
		got := map[string]*core.TransformedTrace{}
		eng, err := NewEngine(Config{
			NewHandler: func(vehicleID string) (Handler, error) {
				tr, err := transform.New(transform.Correlation, 12)
				if err != nil {
					return nil, err
				}
				out := &core.TransformedTrace{}
				mu.Lock()
				got[vehicleID] = out
				mu.Unlock()
				return core.NewTraceCollector(vehicleID, core.TransformConfig{
					Transformer: tr,
					Filter:      func(*timeseries.Record) bool { return true },
				}, out)
			},
			Shards:     shards,
			DropAlarms: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Replay(records, events); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("shards=%d: %d traces, want 2", shards, len(got))
		}
		for v, tt := range got {
			if !reflect.DeepEqual(tt, want[v]) {
				t.Errorf("shards=%d: trace for %s differs from serial transform pass", shards, v)
			}
		}
		stats := eng.Stats()
		if stats.SamplesScored != uint64(len(want["veh-1"].Samples)+len(want["veh-2"].Samples)) {
			t.Errorf("shards=%d: SamplesScored = %d, want emitted-sample total", shards, stats.SamplesScored)
		}
		if ids := eng.VehicleIDs(); !reflect.DeepEqual(ids, []string{"veh-1", "veh-2"}) {
			t.Errorf("shards=%d: VehicleIDs = %v, want both vehicles", shards, ids)
		}
	}
}

// TestEngineConfigFactoryExclusivity pins the exactly-one-factory rule.
func TestEngineConfigFactoryExclusivity(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("no factory should error")
	}
	cfgFn := func(string) (core.Config, error) { return core.Config{}, ErrSkipVehicle }
	hFn := func(string) (Handler, error) { return nil, ErrSkipVehicle }
	if _, err := NewEngine(Config{NewConfig: cfgFn, NewHandler: hFn}); err == nil {
		t.Error("both factories should error")
	}
}
