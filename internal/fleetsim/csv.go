package fleetsim

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
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

// ReadRecordsCSV parses telemetry records written by WriteRecordsCSV. It
// streams the file and interns vehicle IDs: a field returned by
// encoding/csv is a substring of its whole line, so keeping row[0] would
// keep every line of the file alive behind its record.
func ReadRecordsCSV(r io.Reader) ([]timeseries.Record, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	if _, err := cr.Read(); err == io.EOF {
		return nil, fmt.Errorf("fleetsim: records csv is empty")
	} else if err != nil {
		return nil, fmt.Errorf("fleetsim: read records csv: %w", err)
	}
	wantCols := 2 + int(obd.NumPIDs)
	ids := map[string]string{}
	var out []timeseries.Record
	for n := 2; ; n++ { // row numbers count the header as row 1
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("fleetsim: read records csv: %w", err)
		}
		if len(row) != wantCols {
			return nil, fmt.Errorf("fleetsim: records csv row %d has %d columns, want %d", n, len(row), wantCols)
		}
		var rec timeseries.Record
		id, ok := ids[row[0]]
		if !ok {
			id = strings.Clone(row[0])
			ids[id] = id
		}
		rec.VehicleID = id
		rec.Time, err = time.Parse(timeLayout, row[1])
		if err != nil {
			return nil, fmt.Errorf("fleetsim: records csv row %d time: %w", n, err)
		}
		for p := 0; p < int(obd.NumPIDs); p++ {
			rec.Values[p], err = strconv.ParseFloat(row[2+p], 64)
			if err != nil {
				return nil, fmt.Errorf("fleetsim: records csv row %d col %s: %w", n, obd.PID(p), err)
			}
		}
		out = append(out, rec)
	}
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
		switch row[2] {
		case "service":
			ev.Type = obd.EventService
		case "repair":
			ev.Type = obd.EventRepair
		case "dtc":
			ev.Type = obd.EventDTC
		default:
			return nil, fmt.Errorf("fleetsim: events csv row %d: unknown type %q", i+2, row[2])
		}
		if row[3] != "" {
			var code, kind string
			if n, _ := fmt.Sscanf(row[3], "%5s:%s", &code, &kind); n >= 1 {
				d := obd.DTC{Code: code, Kind: obd.DTCPending}
				if kind == "stored" {
					d.Kind = obd.DTCStored
				}
				ev.DTC = &d
			}
		}
		ev.Note = row[4]
		out = append(out, ev)
	}
	return out, nil
}
