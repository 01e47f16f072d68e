package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
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

// TestServeStreamEndpoint uploads the frames as a chunked body of
// unknown length, the shape of a producer trickling frames over a
// held-open connection: POST /ingest decodes it frame by frame off the
// request body. There is no second binary route: POST /ingest/stream
// is 404.
func TestServeStreamEndpoint(t *testing.T) {
	s, ts := testServer(t)
	frames, nframes, nrecs, _ := testFleetFrames(t)
	// A reader that is not a *bytes.Reader gives the client no length,
	// so the body goes out with Transfer-Encoding: chunked.
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", io.MultiReader(bytes.NewReader(frames)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked POST /ingest: %d %s", resp.StatusCode, body)
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
	if st := s.eng.StatsConsistent(); st.RecordsIn != uint64(nrecs) {
		t.Fatalf("engine saw %d records, want %d", st.RecordsIn, nrecs)
	}
	if resp, body := postBody(t, ts.URL+"/ingest/stream", "application/octet-stream", frames); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /ingest/stream: %d %s, want 404", resp.StatusCode, body)
	}
}

// TestServeStopCutsHeldOpenIngest holds a chunked POST /ingest open
// across shutdown, beside a handler that outlives the grace period and
// only then admits. stop keeps serving the stream through the grace
// period, cuts it at the deadline, and returns only after the late
// handler has returned, so the live engine's checkpoint holds every
// record admitted, the late one included.
func TestServeStopCutsHeldOpenIngest(t *testing.T) {
	s, err := newServer(serverConfig{shards: 2, factor: 4, journalCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.close() }) //nolint:errcheck // engine already exercised
	base := time.Date(2023, 5, 1, 8, 0, 0, 0, time.UTC)
	entered, release := make(chan struct{}), make(chan struct{})
	s.mux.HandleFunc("POST /late", func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
		if err := s.eng.IngestBatch([]timeseries.Record{{VehicleID: "veh-late", Time: base}}, nil); err != nil {
			t.Error(err)
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.mux, ConnState: s.trackConn}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed once stop runs
	url := "http://" + ln.Addr().String()
	post := func(path string, body io.Reader) {
		if resp, err := http.Post(url+path, "application/octet-stream", body); err == nil {
			resp.Body.Close()
		}
	}
	go post("/late", nil)
	<-entered

	// The producer: a body of unknown length, fed one frame at a time.
	body, feed := io.Pipe()
	t.Cleanup(func() { feed.Close() })
	go post("/ingest", body)
	send := func(minute int) {
		t.Helper()
		if _, err := feed.Write(singleRecordFrame("veh-held", base, minute)); err != nil {
			t.Fatal(err)
		}
	}
	admitted := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for s.eng.StatsConsistent().RecordsIn != want {
			if time.Now().After(deadline) {
				t.Fatalf("engine admitted %d records, want %d", s.eng.StatsConsistent().RecordsIn, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for minute := 0; minute < 3; minute++ {
		send(minute)
	}
	admitted(3)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	stopped := make(chan error, 1)
	go func() { stopped <- s.stop(ctx, srv) }()
	send(3) // inside the grace period the stream is still served
	admitted(4)
	select {
	case <-stopped:
		t.Fatal("stop returned while a handler was still running")
	case <-time.After(1500 * time.Millisecond): // past the deadline
	}
	close(release)
	select {
	case err := <-stopped:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("stop = %v, want the grace deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not return once the late handler had")
	}
	if st := s.eng.StatsConsistent(); st.RecordsIn != 5 {
		t.Fatalf("after stop the engine admitted %d records, want 5", st.RecordsIn)
	}

	var ckpt bytes.Buffer
	if err := s.eng.Checkpoint(&ckpt); err != nil {
		t.Fatalf("checkpoint after stop: %v", err)
	}
	r, err := newServer(serverConfig{shards: 1, factor: 4, journalCap: 256, resume: &ckpt})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close() //nolint:errcheck // nothing ingested
	ids := r.eng.VehicleIDs()
	sort.Strings(ids)
	if len(ids) != 2 || ids[0] != "veh-held" || ids[1] != "veh-late" {
		t.Fatalf("resumed engine serves %v, want [veh-held veh-late]", ids)
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

// TestOpenLogAcrossRestart pins -journal and -events across a
// restart: a server resuming from a checkpoint appends to what the run
// before it wrote, and a fresh start begins the file anew.
func TestOpenLogAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	write := func(line string, resume bool) string {
		t.Helper()
		f, err := openLog(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(line); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(got)
	}
	write("first run\n", false)
	if got, want := write("resumed run\n", true), "first run\nresumed run\n"; got != want {
		t.Fatalf("after a resumed start the file holds %q, want %q", got, want)
	}
	if got, want := write("fresh run\n", false), "fresh run\n"; got != want {
		t.Fatalf("after a fresh start the file holds %q, want %q", got, want)
	}
}
