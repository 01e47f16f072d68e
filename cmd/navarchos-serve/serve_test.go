package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/wire"
)

// testServer builds a 2-shard server with the fleet tests' sensitive
// threshold factor so the synthetic fleet raises journaled alarms.
func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(serverConfig{shards: 2, factor: 4, journalCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	t.Cleanup(func() {
		ts.Close()
		s.close() //nolint:errcheck // engine already exercised
	})
	return s, ts
}

// testFleet is the six-vehicle, 120-day synthetic fleet the end-to-end
// tests upload: small enough to ingest in milliseconds, failing enough
// to journal alarms.
func testFleet() *fleetsim.Fleet {
	cfg := fleetsim.SmallConfig()
	cfg.NumVehicles = 6
	cfg.Days = 120
	cfg.RecordedVehicles = 5
	cfg.RecordedFailures = 2
	cfg.HiddenFailures = 1
	return fleetsim.Generate(cfg)
}

func testFleetFrames(t *testing.T) ([]byte, int, int, int) {
	t.Helper()
	f := testFleet()
	frames, nframes, err := wire.EncodeStream(nil, f.Records, f.Events, 512)
	if err != nil {
		t.Fatal(err)
	}
	return frames, nframes, len(f.Records), len(f.Events)
}

func postBody(t *testing.T, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestServeWireIngestEndToEnd drives the whole data plane over HTTP: a
// binary NVWIRE1 upload must be admitted in full, raise journaled
// alarms queryable fleet-wide and per vehicle, and show up in the
// ingest metrics exposition.
func TestServeWireIngestEndToEnd(t *testing.T) {
	s, ts := testServer(t)
	frames, nframes, nrecs, nevs := testFleetFrames(t)

	resp, body := postBody(t, ts.URL+"/ingest", "application/octet-stream", frames)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: %d %s", resp.StatusCode, body)
	}
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Frames != nframes || ir.Records != nrecs || ir.Events != nevs {
		t.Fatalf("ingest response %+v, want %d frames / %d records / %d events",
			ir, nframes, nrecs, nevs)
	}

	// The engine saw everything. The handler's Flush enqueues but does
	// not wait; the quiesce inside StatsConsistent is the barrier that
	// makes the consumer-side counters (and every alarm) visible.
	st := s.eng.StatsConsistent()
	if st.RecordsIn != uint64(nrecs) || st.EventsIn != uint64(nevs) {
		t.Fatalf("engine stats %d/%d, want %d/%d", st.RecordsIn, st.EventsIn, nrecs, nevs)
	}

	// Fleet-wide alarm history.
	resp, body = postGet(t, ts.URL+"/alarms")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /alarms: %d", resp.StatusCode)
	}
	var alarms struct {
		Total  uint64           `json:"total"`
		Alarms []obs.AlarmEvent `json:"alarms"`
	}
	if err := json.Unmarshal(body, &alarms); err != nil {
		t.Fatal(err)
	}
	if alarms.Total == 0 || len(alarms.Alarms) == 0 {
		t.Fatalf("no journaled alarms after ingesting a failing fleet: %s", body)
	}

	// Per-vehicle history: every entry must belong to the vehicle asked
	// for, and match the journal's own view.
	veh := alarms.Alarms[len(alarms.Alarms)-1].VehicleID
	resp, body = postGet(t, ts.URL+"/vehicles/"+veh)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /vehicles/%s: %d", veh, resp.StatusCode)
	}
	var vh struct {
		Vehicle string           `json:"vehicle"`
		Alarms  []obs.AlarmEvent `json:"alarms"`
	}
	if err := json.Unmarshal(body, &vh); err != nil {
		t.Fatal(err)
	}
	if vh.Vehicle != veh || len(vh.Alarms) == 0 {
		t.Fatalf("GET /vehicles/%s = %s", veh, body)
	}
	for _, a := range vh.Alarms {
		if a.VehicleID != veh {
			t.Fatalf("vehicle endpoint leaked %s into %s's history", a.VehicleID, veh)
		}
	}

	// Ingest metrics are scraped through the same mux.
	resp, body = postGet(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	for _, fam := range []string{"pdm_ingest_records_total", "pdm_ingest_frames_total",
		"pdm_ingest_bytes_total", "pdm_ingest_decode_seconds"} {
		if !strings.Contains(string(body), fam) {
			t.Fatalf("/metrics missing %s", fam)
		}
	}
}

func postGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestServeStreamEndpoint uploads the same frames through the
// streaming route, which decodes frame-by-frame off the request body.
func TestServeStreamEndpoint(t *testing.T) {
	s, ts := testServer(t)
	frames, nframes, nrecs, _ := testFleetFrames(t)
	resp, body := postBody(t, ts.URL+"/ingest/stream", "application/octet-stream", frames)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest/stream: %d %s", resp.StatusCode, body)
	}
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Frames != nframes || ir.Records != nrecs {
		t.Fatalf("stream response %+v, want %d frames / %d records", ir, nframes, nrecs)
	}
	// Quiesce before reading the consumer-side counter: the handler's
	// Flush enqueues but does not wait for shard consumers.
	s.eng.VehicleIDs()
	if st := s.eng.StatsConsistent(); st.RecordsIn != uint64(nrecs) {
		t.Fatalf("engine saw %d records, want %d", st.RecordsIn, nrecs)
	}
}

// TestServeRejectsCorruptUpload pins the failure path: a corrupt frame
// is refused with 400, counted in pdm_ingest_rejects_total, and admits
// nothing downstream of the broken frame.
func TestServeRejectsCorruptUpload(t *testing.T) {
	_, ts := testServer(t)
	frames, _, _, _ := testFleetFrames(t)
	corrupt := append([]byte(nil), frames...)
	corrupt[wire.HeaderSize+3] ^= 0xff // payload flip: CRC mismatch on frame 1

	resp, body := postBody(t, ts.URL+"/ingest", "application/octet-stream", corrupt)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload: %d %s, want 400", resp.StatusCode, body)
	}
	resp, metrics := postGet(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if !strings.Contains(string(metrics), "pdm_ingest_rejects_total 1") {
		t.Fatalf("/metrics does not count the reject:\n%s", metrics)
	}

	// Garbage that is not even a header is refused too.
	resp, _ = postBody(t, ts.URL+"/ingest", "application/octet-stream", []byte("not a frame"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: %d, want 400", resp.StatusCode)
	}
}

// TestServeTextFormats exercises the CSV and JSON compatibility
// decoders through the Content-Type switch.
func TestServeTextFormats(t *testing.T) {
	s, ts := testServer(t)
	csv := "vehicle,time,rpm,speed,coolantTemp,intakeTemp,mapIntake,MAFairFlowRate\n" +
		"veh-csv,2023-05-01T10:00:00Z,1500,60,88,25,95,14\n" +
		"veh-csv,2023-05-01T10:01:00Z,1520,61,88.5,25,96,14.2\n"
	resp, body := postBody(t, ts.URL+"/ingest", "text/csv", []byte(csv))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST csv: %d %s", resp.StatusCode, body)
	}
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Records != 2 {
		t.Fatalf("csv ingest %+v, want 2 records", ir)
	}

	ndjson := `{"vehicle":"veh-json","time":"2023-05-01T10:00:00Z","values":[1500,60,88,25,95,14]}
{"vehicle":"veh-json","time":"2023-05-01T10:05:00Z","event":"repair","note":"water pump"}
`
	resp, body = postBody(t, ts.URL+"/ingest", "application/json; charset=utf-8", []byte(ndjson))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST json: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Records != 1 || ir.Events != 1 {
		t.Fatalf("json ingest %+v, want 1 record + 1 event", ir)
	}

	// A schema violation in either format is a 400, not a 500.
	resp, _ = postBody(t, ts.URL+"/ingest", "text/csv", []byte("not,a,schema\n1,2,3\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad csv header: %d, want 400", resp.StatusCode)
	}

	s.eng.VehicleIDs() // barrier: Flush alone does not wait for consumers
	if st := s.eng.StatsConsistent(); st.RecordsIn != 3 || st.EventsIn != 1 {
		t.Fatalf("engine stats %d/%d, want 3 records / 1 event", st.RecordsIn, st.EventsIn)
	}
}
