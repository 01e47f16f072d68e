package fleetsim

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

const timeLayout = time.RFC3339

// WriteRecordsCSV writes telemetry records as CSV with a header row:
// vehicle,time,rpm,speed,coolantTemp,intakeTemp,mapIntake,MAFairFlowRate.
func WriteRecordsCSV(w io.Writer, recs []timeseries.Record) error {
	_, err := WriteDaysCSV(w, func(fn func([]timeseries.Record) error) error { return fn(recs) })
	return err
}

// WriteDaysCSV writes, as WriteRecordsCSV does, the records that days
// hands its callback a day at a time (a Fleet's Days, say), and returns
// how many it wrote.
func WriteDaysCSV(w io.Writer, days func(fn func(day []timeseries.Record) error) error) (int, error) {
	cw := csv.NewWriter(w)
	header := append([]string{"vehicle", "time"}, obd.PIDNames()...)
	if err := cw.Write(header); err != nil {
		return 0, fmt.Errorf("fleetsim: write header: %w", err)
	}
	row := make([]string, 2+int(obd.NumPIDs))
	n := 0
	err := days(func(recs []timeseries.Record) error {
		for i := range recs {
			r := &recs[i]
			row[0] = r.VehicleID
			row[1] = r.Time.UTC().Format(timeLayout)
			for p := 0; p < int(obd.NumPIDs); p++ {
				row[2+p] = strconv.FormatFloat(r.Values[p], 'f', 3, 64)
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("fleetsim: write record %d: %w", n, err)
			}
			n++
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	cw.Flush()
	return n, cw.Error()
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
