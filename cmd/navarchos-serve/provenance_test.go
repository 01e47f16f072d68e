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
	s, ts := testServer(t)
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

// TestServeAdminEventsDrainAudit pins the drain audit trail: moving a
// fleet to a peer must leave a drain-start/drain-finish pair per
// vehicle on the source's GET /admin/events, an adopt entry per
// vehicle on the target's, a working ?vehicle= filter, the event-log
// cross-link on /admin/placement, and the per-kind counters on
// /metrics.
func TestServeAdminEventsDrainAudit(t *testing.T) {
	first, _, vehicles := splitFrames(t)
	_, tsa := namedServer(t, "a", nil)
	_, tsb := namedServer(t, "b", nil)

	if resp, body := postBody(t, tsa.URL+"/ingest", "application/octet-stream", first); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	resp, body := postBody(t, tsa.URL+"/admin/drain?to="+tsb.URL, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d %s", resp.StatusCode, body)
	}
	var dr drainResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Moved != len(vehicles) {
		t.Fatalf("drain moved %d vehicles, want %d", dr.Moved, len(vehicles))
	}

	type eventsResponse struct {
		Total  uint64             `json:"total"`
		Events []obs.ControlEvent `json:"events"`
	}
	getEvents := func(base, query string) eventsResponse {
		t.Helper()
		resp, body := postGet(t, base+"/admin/events"+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /admin/events%s: %d", query, resp.StatusCode)
		}
		var er eventsResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		return er
	}

	// Source: one drain-start and one drain-finish per vehicle, in
	// order, pointing at the target.
	src := getEvents(tsa.URL, "?n=0")
	if src.Total != uint64(2*dr.Moved) {
		t.Fatalf("source logged %d events, want %d (start+finish per vehicle)", src.Total, 2*dr.Moved)
	}
	starts, finishes := map[string]bool{}, map[string]bool{}
	for _, e := range src.Events {
		if e.Engine != "a" || e.Peer != tsb.URL || !vehicles[e.VehicleID] {
			t.Fatalf("drain event with wrong endpoints: %+v", e)
		}
		switch e.Kind {
		case obs.EventDrainStart:
			starts[e.VehicleID] = true
		case obs.EventDrainFinish:
			if !starts[e.VehicleID] {
				t.Fatalf("drain-finish for %s before its drain-start", e.VehicleID)
			}
			if e.DurationS <= 0 {
				t.Fatalf("drain-finish without a duration: %+v", e)
			}
			finishes[e.VehicleID] = true
		default:
			t.Fatalf("unexpected event kind %q on the source", e.Kind)
		}
	}
	if len(starts) != dr.Moved || len(finishes) != dr.Moved {
		t.Fatalf("per-vehicle audit incomplete: %d starts, %d finishes, want %d each",
			len(starts), len(finishes), dr.Moved)
	}

	// The per-vehicle filter isolates one audit trail.
	veh := dr.Vehicles[0]
	forVeh := getEvents(tsa.URL, "?vehicle="+veh)
	if len(forVeh.Events) != 2 {
		t.Fatalf("?vehicle=%s returned %d events, want 2", veh, len(forVeh.Events))
	}
	for _, e := range forVeh.Events {
		if e.VehicleID != veh {
			t.Fatalf("?vehicle=%s leaked an event for %s", veh, e.VehicleID)
		}
	}

	// Target: one adopt per vehicle, arriving over the handoff wire path.
	dst := getEvents(tsb.URL, "?n=0")
	adopts := map[string]bool{}
	for _, e := range dst.Events {
		if e.Kind == obs.EventAdopt && vehicles[e.VehicleID] {
			adopts[e.VehicleID] = true
		}
	}
	if len(adopts) != dr.Moved {
		t.Fatalf("target logged %d adopt events, want %d", len(adopts), dr.Moved)
	}

	// Cordon/uncordon are audited too.
	if resp, _ := postBody(t, tsb.URL+"/admin/cordon?vehicle="+veh, "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cordon: %d", resp.StatusCode)
	}
	if resp, _ := postBody(t, tsb.URL+"/admin/cordon?vehicle="+veh+"&off=1", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("uncordon: %d", resp.StatusCode)
	}
	tail := getEvents(tsb.URL, "?vehicle="+veh)
	kinds := make([]string, 0, len(tail.Events))
	for _, e := range tail.Events {
		kinds = append(kinds, e.Kind)
	}
	if len(kinds) < 3 || kinds[len(kinds)-2] != obs.EventCordon || kinds[len(kinds)-1] != obs.EventUncordon {
		t.Fatalf("cordon audit trail = %v, want ... cordon, uncordon", kinds)
	}

	// Placement cross-links the event log.
	resp, body = postGet(t, tsa.URL+"/admin/placement")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("placement: %d", resp.StatusCode)
	}
	var pl struct {
		EventsTotal uint64 `json:"events_total"`
		EventsURL   string `json:"events_url"`
	}
	if err := json.Unmarshal(body, &pl); err != nil {
		t.Fatal(err)
	}
	if pl.EventsTotal != src.Total || pl.EventsURL != "/admin/events" {
		t.Fatalf("placement cross-link = %+v, want %d events at /admin/events", pl, src.Total)
	}

	// The per-kind counter family counts the audit.
	if resp, metrics := postGet(t, tsa.URL+"/metrics"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(metrics), `pdm_ctrl_events_total{kind="drain-finish"} `+strconv.Itoa(dr.Moved)) {
		t.Fatalf("/metrics does not count %d drain-finish events", dr.Moved)
	}
}

// TestServeFleetPlacementView pins the /fleet debug endpoint's
// control-plane satellite: with peers configured the response embeds
// the placement view; without peers the field is absent.
func TestServeFleetPlacementView(t *testing.T) {
	_, tsRouted := namedServer(t, "a", map[string]string{"b": "http://127.0.0.1:1"})
	resp, body := postGet(t, tsRouted.URL+"/fleet")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fleet: %d", resp.StatusCode)
	}
	var routed struct {
		Placement *placementResponse `json:"placement"`
	}
	if err := json.Unmarshal(body, &routed); err != nil {
		t.Fatal(err)
	}
	if routed.Placement == nil {
		t.Fatalf("/fleet with peers lacks a placement view: %s", body)
	}
	if routed.Placement.Self != "a" || len(routed.Placement.Members) != 2 ||
		routed.Placement.EventsURL != "/admin/events" {
		t.Fatalf("/fleet placement = %+v", routed.Placement)
	}

	_, tsSolo := testServer(t)
	resp, body = postGet(t, tsSolo.URL+"/fleet")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fleet: %d", resp.StatusCode)
	}
	var solo map[string]json.RawMessage
	if err := json.Unmarshal(body, &solo); err != nil {
		t.Fatal(err)
	}
	if _, present := solo["placement"]; present {
		t.Fatal("single-instance /fleet leaked a placement field")
	}
}
