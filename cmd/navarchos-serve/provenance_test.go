package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/wire"
)

// tracedFleetFrames encodes the synthetic fleet's records as NVWIRE1
// frames that each carry a trace-context item, the way an instrumented
// producer tags its uploads.
func tracedFleetFrames(t *testing.T, traceID uint64) ([]byte, int) {
	t.Helper()
	f := testFleet()
	var enc wire.Encoder
	frames := 0
	for start := 0; start < len(f.Records); start += 512 {
		end := min(start+512, len(f.Records))
		enc.Begin()
		enc.TraceContext(traceID)
		for i := start; i < end; i++ {
			enc.Record(&f.Records[i])
		}
		enc.End()
		frames++
	}
	if enc.Err() != nil {
		t.Fatal(enc.Err())
	}
	return enc.Bytes(), frames
}

// TestServeAlarmProvenance is the acceptance path for end-to-end
// provenance: after a traced wire upload, every journal entry served
// by GET /alarms must say which ingest batch caused it (batch ID, the
// producer's trace ID, wire arrival time, a positive ingest-to-alarm
// latency), and the pdm_e2e_* family must account for the traffic on
// /metrics.
func TestServeAlarmProvenance(t *testing.T) {
	const traceID = 0xabc123
	s, ts := namedServer(t, "", nil)
	frames, nframes := tracedFleetFrames(t, traceID)

	resp, body := postBody(t, ts.URL+"/ingest", "application/octet-stream", frames)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: %d %s", resp.StatusCode, body)
	}
	// Flush enqueues but does not wait; the quiesce inside VehicleIDs
	// makes every admitted record's alarms journal-visible.
	s.eng.Flush()
	s.eng.VehicleIDs()

	resp, body = postGet(t, ts.URL+"/alarms?n=256")
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
	if len(alarms.Alarms) == 0 {
		t.Fatal("no journaled alarms after ingesting a failing fleet")
	}
	for i, a := range alarms.Alarms {
		if a.BatchID == 0 || a.BatchID > uint64(nframes) {
			t.Fatalf("alarm %d has batch_id %d, want 1..%d", i, a.BatchID, nframes)
		}
		if a.TraceID != traceID {
			t.Fatalf("alarm %d has trace_id %#x, want %#x", i, a.TraceID, traceID)
		}
		if a.ArrivalTime.IsZero() {
			t.Fatalf("alarm %d has no arrival_time", i)
		}
		if a.E2ELatencyS <= 0 {
			t.Fatalf("alarm %d has e2e_latency_s %v, want > 0", i, a.E2ELatencyS)
		}
		if a.QueueWaitS < 0 {
			t.Fatalf("alarm %d has negative queue_wait_s %v", i, a.QueueWaitS)
		}
	}

	resp, metrics := postGet(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	text := string(metrics)
	for _, want := range []string{
		"pdm_e2e_alarm_latency_seconds_count",
		"pdm_e2e_queue_wait_seconds",
		"pdm_e2e_traced_batches_total " + strconv.Itoa(nframes),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	if strings.Contains(text, "pdm_e2e_traced_alarms_total 0\n") {
		t.Fatal("pdm_e2e_traced_alarms_total stayed 0 despite journaled traced alarms")
	}
}
