package fleetsim

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/wire"
)

const timeLayout = time.RFC3339

// WriteRecordsCSV writes telemetry records as CSV with a header row:
// vehicle,time,rpm,speed,coolantTemp,intakeTemp,mapIntake,MAFairFlowRate.
func WriteRecordsCSV(w io.Writer, recs []timeseries.Record) error {
	cw := csv.NewWriter(w)
	header := append([]string{"vehicle", "time"}, obd.PIDNames()...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("fleetsim: write header: %w", err)
	}
	row := make([]string, 2+int(obd.NumPIDs))
	for i := range recs {
		r := &recs[i]
		row[0] = r.VehicleID
		row[1] = r.Time.UTC().Format(timeLayout)
		for p := 0; p < int(obd.NumPIDs); p++ {
			row[2+p] = strconv.FormatFloat(r.Values[p], 'f', 3, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("fleetsim: write record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadRecordsCSV parses telemetry records written by WriteRecordsCSV: a
// collecting sink over wire.DecodeCSV, which owns the schema, streams
// the file and interns vehicle IDs, so what comes back holds the
// records and a handful of ID strings, not a CSV line per record.
func ReadRecordsCSV(r io.Reader) ([]timeseries.Record, error) {
	var out []timeseries.Record
	_, err := wire.DecodeCSV(r, 0, wire.SinkFunc(func(b *wire.Batch) error {
		out = append(out, b.Records...)
		return nil
	}))
	if err != nil {
		return nil, fmt.Errorf("fleetsim: read records csv: %w", err)
	}
	return out, nil
}

// WriteEventsCSV writes events as CSV: vehicle,time,type,dtc,note.
func WriteEventsCSV(w io.Writer, events []obd.Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"vehicle", "time", "type", "dtc", "note"}); err != nil {
		return fmt.Errorf("fleetsim: write events header: %w", err)
	}
	for i, ev := range events {
		dtc := ""
		if ev.DTC != nil {
			dtc = ev.DTC.Code + ":" + ev.DTC.Kind.String()
		}
		row := []string{ev.VehicleID, ev.Time.UTC().Format(timeLayout), ev.Type.String(), dtc, ev.Note}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("fleetsim: write event %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadEventsCSV parses events written by WriteEventsCSV.
func ReadEventsCSV(r io.Reader) ([]obd.Event, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("fleetsim: read events csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("fleetsim: events csv is empty")
	}
	out := make([]obd.Event, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != 5 {
			return nil, fmt.Errorf("fleetsim: events csv row %d has %d columns, want 5", i+2, len(row))
		}
		var ev obd.Event
		ev.VehicleID = row[0]
		ev.Time, err = time.Parse(timeLayout, row[1])
		if err != nil {
			return nil, fmt.Errorf("fleetsim: events csv row %d time: %w", i+2, err)
		}
		if ev.Type, err = obd.ParseEventType(row[2]); err != nil {
			return nil, fmt.Errorf("fleetsim: events csv row %d: %w", i+2, err)
		}
		if row[3] != "" {
			d, err := obd.ParseDTC(row[3])
			if err != nil {
				return nil, fmt.Errorf("fleetsim: events csv row %d: %w", i+2, err)
			}
			ev.DTC = &d
		}
		ev.Note = row[4]
		out = append(out, ev)
	}
	return out, nil
}
