package wire

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// This file is the compatibility ingest path: CSV and JSON batch
// decoders that deliver through the same FrameSink as the binary
// decoder, so navarchos-serve treats every wire format identically
// downstream of decode. These paths parse text and therefore allocate —
// they exist for interoperability (navarchos-gen CSV dumps, ad-hoc
// curl), not for the throughput bound; high-volume producers should
// speak NVWIRE1.

// DecodeCSV streams telemetry records in the navarchos-gen CSV schema
// (vehicle,time,rpm,speed,coolantTemp,intakeTemp,mapIntake,
// MAFairFlowRate) into sink in batches of up to batchSize records
// (default 512), interning vehicle IDs — a field encoding/csv returns is
// a substring of its whole line, so keeping row[0] would keep every
// line of the body alive behind its record. Returns the record count.
func DecodeCSV(r io.Reader, batchSize int, sink FrameSink) (int, error) {
	if batchSize <= 0 {
		batchSize = 512
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("wire: csv header: %w", err)
	}
	wantCols := 2 + int(obd.NumPIDs)
	if len(header) != wantCols || header[0] != "vehicle" || header[1] != "time" {
		return 0, fmt.Errorf("wire: csv header %v does not match the records schema", header)
	}
	var ids Decoder // for its bounded intern table only
	var batch Batch
	total := 0
	flush := func() error {
		if batch.Len() == 0 {
			return nil
		}
		if err := sink.ConsumeBatch(&batch); err != nil {
			return err
		}
		batch.Reset()
		return nil
	}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, fmt.Errorf("wire: csv row %d: %w", line, err)
		}
		if len(row) != wantCols {
			return total, fmt.Errorf("wire: csv row %d has %d columns, want %d", line, len(row), wantCols)
		}
		var rec timeseries.Record
		rec.VehicleID = ids.internID([]byte(row[0]))
		rec.Time, err = time.Parse(time.RFC3339, row[1])
		if err != nil {
			return total, fmt.Errorf("wire: csv row %d time: %w", line, err)
		}
		for p := 0; p < int(obd.NumPIDs); p++ {
			rec.Values[p], err = strconv.ParseFloat(row[2+p], 64)
			if err != nil {
				return total, fmt.Errorf("wire: csv row %d col %s: %w", line, obd.PID(p), err)
			}
		}
		batch.Records = append(batch.Records, rec)
		total++
		if batch.Len() >= batchSize {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	return total, flush()
}

// jsonItem is the JSON ingest shape: a record when "event" is absent
// (values in PID order), an event otherwise.
type jsonItem struct {
	Vehicle string    `json:"vehicle"`
	Time    time.Time `json:"time"`
	Values  []float64 `json:"values,omitempty"`
	Event   string    `json:"event,omitempty"` // service | repair | dtc
	DTC     string    `json:"dtc,omitempty"`   // "P0128" or "P0128:stored"
	Note    string    `json:"note,omitempty"`
}

// DecodeJSON streams telemetry items into sink in batches of up to
// batchSize (default 512). The input is either a JSON array of items or
// newline-delimited item objects; each item is
//
//	{"vehicle":"veh-01","time":"2023-01-01T10:00:00Z","values":[v0,...,v5]}
//	{"vehicle":"veh-01","time":"...","event":"repair","note":"water pump"}
//
// with values in canonical PID order. Returns the item count.
func DecodeJSON(r io.Reader, batchSize int, sink FrameSink) (int, error) {
	if batchSize <= 0 {
		batchSize = 512
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	inArray := false
	tok, err := dec.Token()
	if err == io.EOF {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wire: json: %w", err)
	}
	if delim, ok := tok.(json.Delim); ok && delim == '[' {
		inArray = true
	} else {
		// Not an array: re-decode the stream as concatenated objects.
		if delim, ok := tok.(json.Delim); !ok || delim != '{' {
			return 0, fmt.Errorf("wire: json input must be an array or a stream of objects")
		}
		// Replay the consumed '{' plus the decoder's buffered bytes.
		dec = json.NewDecoder(io.MultiReader(strings.NewReader("{"), dec.Buffered(), r))
		dec.DisallowUnknownFields()
	}
	var batch Batch
	total := 0
	flush := func() error {
		if batch.Len() == 0 {
			return nil
		}
		if err := sink.ConsumeBatch(&batch); err != nil {
			return err
		}
		batch.Reset()
		return nil
	}
	for {
		if inArray && !dec.More() {
			if _, err := dec.Token(); err != nil { // consume ']'
				return total, fmt.Errorf("wire: json: %w", err)
			}
			break
		}
		var it jsonItem
		if err := dec.Decode(&it); err != nil {
			if !inArray && err == io.EOF {
				break
			}
			return total, fmt.Errorf("wire: json item %d: %w", total+1, err)
		}
		if err := appendJSONItem(&batch, &it); err != nil {
			return total, fmt.Errorf("wire: json item %d: %w", total+1, err)
		}
		total++
		if batch.Len() >= batchSize {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	return total, flush()
}

// appendJSONItem validates one decoded item and appends it to the batch.
func appendJSONItem(b *Batch, it *jsonItem) error {
	if it.Vehicle == "" {
		return fmt.Errorf("missing vehicle")
	}
	if it.Time.IsZero() {
		return fmt.Errorf("missing time")
	}
	if it.Event == "" {
		if len(it.Values) != int(obd.NumPIDs) {
			return fmt.Errorf("record has %d values, want %d", len(it.Values), obd.NumPIDs)
		}
		var rec timeseries.Record
		rec.VehicleID = it.Vehicle
		rec.Time = it.Time.UTC()
		copy(rec.Values[:], it.Values)
		b.Records = append(b.Records, rec)
		return nil
	}
	ev := obd.Event{VehicleID: it.Vehicle, Time: it.Time.UTC(), Note: it.Note}
	var err error
	if ev.Type, err = obd.ParseEventType(it.Event); err != nil {
		return err
	}
	if it.DTC != "" {
		d, err := obd.ParseDTC(it.DTC)
		if err != nil {
			return err
		}
		ev.DTC = &d
	}
	b.Events = append(b.Events, ev)
	return nil
}
