package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func debugFixture() (DebugConfig, *Registry, *Journal) {
	reg := NewRegistry()
	reg.Counter("pdm_debug_records_total", "h").Add(42)
	h := reg.Histogram("pdm_debug_latency_seconds", "h", DefLatencyBuckets)
	h.Observe(3e-6)
	j := NewJournal(40)
	for i := 0; i < 45; i++ {
		j.Append(journalEvent(i))
	}
	status := func() any {
		return map[string]any{"vehicles": 4, "records_in": 1000}
	}
	return DebugConfig{Registry: reg, Journal: j, FleetStatus: status}, reg, j
}

func TestDebugMetricsEndpoint(t *testing.T) {
	cfg, _, _ := debugFixture()
	srv := httptest.NewServer(NewDebugMux(cfg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE pdm_debug_records_total counter",
		"pdm_debug_records_total 42",
		"# TYPE pdm_debug_latency_seconds histogram",
		`pdm_debug_latency_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	validateExposition(t, text)
}

func TestDebugFleetEndpoint(t *testing.T) {
	cfg, _, _ := debugFixture()
	srv := httptest.NewServer(NewDebugMux(cfg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Engine       map[string]any `json:"engine"`
		JournalTotal uint64         `json:"journal_total"`
		Journal      []AlarmEvent   `json:"journal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Engine["vehicles"] != float64(4) {
		t.Fatalf("engine status = %+v", got.Engine)
	}
	if got.JournalTotal != 45 {
		t.Fatalf("journal_total = %d, want 45", got.JournalTotal)
	}
	if len(got.Journal) != journalN { // of the 40 the journal holds
		t.Fatalf("journal entries = %d, want %d", len(got.Journal), journalN)
	}
	last := got.Journal[len(got.Journal)-1]
	if last.Seq != 44 || last.VehicleID == "" || last.Score == 0 || last.Threshold == 0 || last.RefLen == 0 {
		t.Fatalf("journal entry missing context: %+v", last)
	}

	// ?n= overrides the entry count.
	resp2, err := http.Get(srv.URL + "/fleet?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Journal) != 2 {
		t.Fatalf("journal entries with n=2: %d", len(got.Journal))
	}
}

func TestDebugVarsAndPprof(t *testing.T) {
	cfg, _, _ := debugFixture()
	srv := httptest.NewServer(NewDebugMux(cfg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	// Go's standard variables only: the registry's series are at
	// /metrics, not pinned into the process-global expvar map.
	for _, key := range []string{"memstats", "cmdline"} {
		if _, ok := vars[key]; !ok {
			t.Fatalf("/debug/vars missing %q (keys: %d)", key, len(vars))
		}
	}
	if _, ok := vars["pdm"]; ok {
		t.Fatal("/debug/vars still publishes a registry under \"pdm\"")
	}

	resp2, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp2.StatusCode)
	}
}

func TestStartDebugServer(t *testing.T) {
	cfg, _, _ := debugFixture()
	s, err := StartDebugServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	o.ProfileReset()
	o.ProfileRefill()
	o.WarmupDrop()
	o.Alarms(3)
	o.RecordAlarm(AlarmEvent{})
	if o.ScoreDist("x") != nil {
		t.Fatal("nil observer ScoreDist should be nil")
	}
	if o.Registry() != nil || o.Journal() != nil {
		t.Fatal("nil observer accessors should return nil")
	}
	if o.SampleMask() != 0 {
		t.Fatal("nil observer mask should be 0")
	}
}

func TestObserverSampleMask(t *testing.T) {
	reg := NewRegistry()
	for _, tc := range []struct {
		rate int
		mask uint32
	}{{0, 63}, {1, 0}, {2, 1}, {3, 3}, {8, 7}, {9, 15}} {
		o := NewObserver(reg, ObserverConfig{SampleRate: tc.rate})
		if o.SampleMask() != tc.mask {
			t.Fatalf("rate %d: mask = %d, want %d", tc.rate, o.SampleMask(), tc.mask)
		}
	}
}
