package wire_test

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/wire"
)

// decodeAll collects every record DecodeCSV reads from r.
func decodeAll(r io.Reader) ([]timeseries.Record, error) {
	var out []timeseries.Record
	_, err := wire.DecodeCSV(r, 0, wire.SinkFunc(func(b *wire.Batch) error {
		out = append(out, b.Records...)
		return nil
	}))
	return out, err
}

// TestDecodeCSVRoundTrip: DecodeCSV reads back what
// fleetsim.WriteRecordsCSV writes, IDs and times exactly and values to
// the writer's three decimals.
func TestDecodeCSVRoundTrip(t *testing.T) {
	cfg := fleetsim.SmallConfig()
	cfg.Days = 40
	cfg.NumVehicles = 2
	cfg.RecordedVehicles = 2
	cfg.RecordedFailures = 1
	cfg.HiddenFailures = 0
	want := fleetsim.Generate(cfg).Records[:200]

	var buf bytes.Buffer
	if err := fleetsim.WriteRecordsCSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := decodeAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-tripped %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].VehicleID != want[i].VehicleID || !got[i].Time.Equal(want[i].Time) {
			t.Fatalf("record %d identity mismatch", i)
		}
		for p := 0; p < int(obd.NumPIDs); p++ {
			if d := got[i].Values[p] - want[i].Values[p]; d > 0.001 || d < -0.001 {
				t.Fatalf("record %d PID %d: %v vs %v", i, p, got[i].Values[p], want[i].Values[p])
			}
		}
	}
}

// TestDecodeCSVErrors: an empty file, a header off the schema and a
// value that does not parse are errors, the last naming its row and
// column.
func TestDecodeCSVErrors(t *testing.T) {
	if _, err := decodeAll(strings.NewReader("")); err == nil {
		t.Error("empty records csv should error")
	}
	if _, err := decodeAll(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("wrong column count should error")
	}
	var buf bytes.Buffer
	if err := fleetsim.WriteRecordsCSV(&buf, make([]timeseries.Record, 2)); err != nil {
		t.Fatal(err)
	}
	torn := strings.Replace(buf.String(), "0.000", "zero", 1) + "short,row\n"
	if _, err := decodeAll(strings.NewReader(torn)); err == nil || !strings.Contains(err.Error(), "row 2 col rpm") {
		t.Errorf("bad value: err = %v, want it to name row 2 col rpm", err)
	}
}

// TestDecodeCSVRetainsOnlyRecords bounds what decoded records keep
// alive: the record slice and a handful of interned IDs, not a CSV line
// per record behind each VehicleID.
func TestDecodeCSVRetainsOnlyRecords(t *testing.T) {
	var buf bytes.Buffer
	if err := fleetsim.WriteRecordsCSV(&buf, fleetsim.Generate(fleetsim.SmallConfig()).Records[:50_000]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs, err := decodeAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	slice := int64(cap(recs)) * int64(unsafe.Sizeof(recs[0]))
	extra := int64(after.HeapAlloc) - int64(before.HeapAlloc) - slice
	if perRecord := float64(extra) / float64(len(recs)); perRecord > 8 {
		t.Errorf("%.1f bytes retained per record beyond the %d-byte slice, want <= 8", perRecord, slice)
	}
	runtime.KeepAlive(recs)
	runtime.KeepAlive(&buf)
}
