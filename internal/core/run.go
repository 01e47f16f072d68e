package core

import (
	"github.com/navarchos/pdm/internal/detector"
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
// order through a fresh pipeline built by makeCfg and returns all alarms
// raised. It is the batch driver the evaluation harness and the
// examples use; the pipeline itself remains fully streaming.
//
// makeCfg is called once per run so each run gets fresh transformer,
// detector and thresholder state.
func RunVehicle(vehicleID string, records []timeseries.Record, events []obd.Event, makeCfg func() Config) ([]detector.Alarm, error) {
	p, err := NewPipeline(vehicleID, makeCfg())
	if err != nil {
		return nil, err
	}
	var alarms []detector.Alarm
	err = Merged(vehicleID, records, events,
		func(ev obd.Event) error {
			p.HandleEvent(ev)
			return nil
		},
		func(r timeseries.Record) error {
			a, err := p.HandleRecord(r)
			if err != nil {
				return err
			}
			alarms = append(alarms, a...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return alarms, nil
}
