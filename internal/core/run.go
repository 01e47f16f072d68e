package core

import (
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fitpool"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// Merged delivers records and events to the callbacks in chronological
// order, events first on equal timestamps, by one two-pointer walk; on
// unsorted input each stream keeps its own order. When vehicleID is
// non-empty, entries for other vehicles are skipped. A non-nil error
// from either callback aborts the replay.
func Merged(vehicleID string, records []timeseries.Record, events []obd.Event,
	onEvent func(obd.Event) error, onRecord func(timeseries.Record) error) error {
	match := func(id string) bool { return vehicleID == "" || id == vehicleID }
	i, j := 0, 0
	for {
		for i < len(records) && !match(records[i].VehicleID) {
			i++
		}
		for j < len(events) && !match(events[j].VehicleID) {
			j++
		}
		switch {
		case i >= len(records) && j >= len(events):
			return nil
		case i >= len(records):
			if err := onEvent(events[j]); err != nil {
				return err
			}
			j++
		case j >= len(events):
			if err := onRecord(records[i]); err != nil {
				return err
			}
			i++
		case !events[j].Time.After(records[i].Time):
			if err := onEvent(events[j]); err != nil {
				return err
			}
			j++
		default:
			if err := onRecord(records[i]); err != nil {
				return err
			}
			i++
		}
	}
}

// RunVehicle replays a vehicle's records and events in chronological
// order through the two stages of the pipeline makeCfg configures, and
// returns the alarms a Pipeline fed the same stream would raise. It is
// the batch driver the evaluation harness and the examples use, and it
// runs in two passes: the transform stage records the vehicle's
// TransformedTrace (TraceCollector), then the detect stage walks it as
// DetectOnTrace does, except that a detector.Replicator fits each Ref
// segment on its own replica, ahead of the walk on fitpool; any other
// fits inline. Samples score strictly in order either way, and the
// density gate carries across resets.
//
// makeCfg is called once per run so each run gets fresh transformer,
// detector and thresholder state.
func RunVehicle(vehicleID string, records []timeseries.Record, events []obd.Event, makeCfg func() Config) ([]detector.Alarm, error) {
	cfg := makeCfg()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var tt TransformedTrace
	c, err := NewTraceCollector(vehicleID, cfg.transformConfig(), &tt)
	if err != nil {
		return nil, err
	}
	err = Merged(vehicleID, records, events,
		func(ev obd.Event) error {
			c.HandleEvent(ev)
			return nil
		},
		func(r timeseries.Record) error {
			_, err := c.HandleRecord(r)
			return err
		})
	if err != nil {
		return nil, err
	}
	ds, err := NewDetectStage(vehicleID, cfg.detectConfig())
	if err != nil {
		return nil, err
	}
	return ds.walk(&tt, fitpool.Workers(), true)
}
