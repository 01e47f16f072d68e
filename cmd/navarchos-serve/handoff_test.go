package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/wire"
)

// singleRecordFrame encodes one NVWIRE1 frame holding one record for
// the vehicle, stamped minute minutes after base.
func singleRecordFrame(vehicle string, base time.Time, minute int) []byte {
	var enc wire.Encoder
	rec := timeseries.Record{VehicleID: vehicle, Time: base.Add(time.Duration(minute) * time.Minute)}
	enc.Record(&rec)
	enc.End()
	return enc.Bytes()
}

// namedServer builds a server with a ring identity for the placement
// and drain tests. A large journal keeps every alarm for bit-identity
// comparison.
func namedServer(t *testing.T, name string, peers map[string]string) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(serverConfig{
		shards: 2, factor: 4, journalCap: 1 << 14,
		name: name, peers: peers,
	})
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

// alarmKey flattens a journal entry to a comparable key carrying the
// exact float bits, so equality means bit-identical alarms.
type alarmKey struct {
	vehicle, feature   string
	nanos              int64
	scoreB, thresholdB uint64
}

func journalKeys(t *testing.T, s *server) []alarmKey {
	t.Helper()
	entries := s.journal.Last(1 << 14)
	keys := make([]alarmKey, 0, len(entries))
	for _, e := range entries {
		keys = append(keys, alarmKey{
			vehicle: e.VehicleID, feature: e.Feature, nanos: e.Time.UnixNano(),
			scoreB: math.Float64bits(e.Score), thresholdB: math.Float64bits(e.Threshold),
		})
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.vehicle != b.vehicle {
			return a.vehicle < b.vehicle
		}
		if a.nanos != b.nanos {
			return a.nanos < b.nanos
		}
		if a.feature != b.feature {
			return a.feature < b.feature
		}
		return a.scoreB < b.scoreB
	})
	return keys
}

// splitFrames re-encodes the fleet stream cut at a record boundary so
// the two halves can be fed to different instances in order.
func splitFrames(t *testing.T) (first, second []byte, vehicles map[string]bool) {
	t.Helper()
	cfg := fleetsim.SmallConfig()
	cfg.NumVehicles = 5
	cfg.Days = 120
	cfg.RecordedVehicles = 4
	cfg.RecordedFailures = 2
	cfg.HiddenFailures = 1
	f := fleetsim.Generate(cfg)
	vehicles = map[string]bool{}
	for i := range f.Records {
		vehicles[f.Records[i].VehicleID] = true
	}
	cutR := len(f.Records) / 2
	cutT := f.Records[cutR].Time
	cutE := sort.Search(len(f.Events), func(i int) bool { return f.Events[i].Time.After(cutT) })
	var err error
	if first, _, err = wire.EncodeStream(nil, f.Records[:cutR], f.Events[:cutE], 256); err != nil {
		t.Fatal(err)
	}
	if second, _, err = wire.EncodeStream(nil, f.Records[cutR:], f.Events[cutE:], 256); err != nil {
		t.Fatal(err)
	}
	return first, second, vehicles
}

// TestServeDrainHandoff is the HTTP-level drain gate: feed half a
// fleet to instance a, drain every vehicle to instance b over the
// handoff wire path, feed the second half to b, and require the merged
// alarm journals to be bit-identical to one instance ingesting the
// whole stream. Also pins the typed 409 for post-drain ingest on a.
func TestServeDrainHandoff(t *testing.T) {
	first, second, vehicles := splitFrames(t)
	sa, tsa := namedServer(t, "a", nil)
	sb, tsb := namedServer(t, "b", nil)
	sref, tsref := namedServer(t, "ref", nil)

	// Reference: the whole stream through one instance.
	for _, frames := range [][]byte{first, second} {
		if resp, body := postBody(t, tsref.URL+"/ingest", "application/octet-stream", frames); resp.StatusCode != http.StatusOK {
			t.Fatalf("reference ingest: %d %s", resp.StatusCode, body)
		}
	}

	// First half into a, then move every vehicle to b live.
	if resp, body := postBody(t, tsa.URL+"/ingest", "application/octet-stream", first); resp.StatusCode != http.StatusOK {
		t.Fatalf("first half: %d %s", resp.StatusCode, body)
	}
	resp, body := postBody(t, tsa.URL+"/admin/drain?to="+tsb.URL, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d %s", resp.StatusCode, body)
	}
	var dr drainResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Moved != len(vehicles) || dr.To != tsb.URL {
		t.Fatalf("drain response %+v, want %d vehicles to %s", dr, len(vehicles), tsb.URL)
	}
	for _, v := range dr.Vehicles {
		if !vehicles[v] {
			t.Fatalf("drain moved unexpected vehicle %q", v)
		}
	}

	// a is empty and remembers where its vehicles went; b holds them.
	resp, body = postGet(t, tsa.URL+"/admin/placement")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("placement: %d", resp.StatusCode)
	}
	var pl struct {
		Self      string            `json:"self"`
		Residents []string          `json:"residents"`
		Migrated  map[string]string `json:"migrated"`
	}
	if err := json.Unmarshal(body, &pl); err != nil {
		t.Fatal(err)
	}
	if pl.Self != "a" || len(pl.Residents) != 0 || len(pl.Migrated) != len(vehicles) {
		t.Fatalf("placement after drain: %s", body)
	}
	for v := range vehicles {
		if pl.Migrated[v] != tsb.URL {
			t.Fatalf("vehicle %s migrated to %q, want %s", v, pl.Migrated[v], tsb.URL)
		}
	}
	if got := len(sb.eng.VehicleIDs()); got != len(vehicles) {
		t.Fatalf("b holds %d vehicles, want %d", got, len(vehicles))
	}

	// Second half lands on b; the handoff carried the warm state so the
	// merged journals match the reference bit-for-bit.
	if resp, body := postBody(t, tsb.URL+"/ingest", "application/octet-stream", second); resp.StatusCode != http.StatusOK {
		t.Fatalf("second half: %d %s", resp.StatusCode, body)
	}
	// Flush enqueues but does not wait; the quiesce inside VehicleIDs is
	// the barrier that makes every admitted record's alarms visible.
	for _, s := range []*server{sa, sb, sref} {
		s.eng.Flush()
		s.eng.VehicleIDs()
	}
	merged := append(journalKeys(t, sa), journalKeys(t, sb)...)
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.vehicle != b.vehicle {
			return a.vehicle < b.vehicle
		}
		if a.nanos != b.nanos {
			return a.nanos < b.nanos
		}
		if a.feature != b.feature {
			return a.feature < b.feature
		}
		return a.scoreB < b.scoreB
	})
	ref := journalKeys(t, sref)
	if len(ref) == 0 {
		t.Fatal("reference run raised no alarms; the gate is vacuous")
	}
	if len(merged) != len(ref) {
		t.Fatalf("merged journals have %d alarms, reference %d", len(merged), len(ref))
	}
	for i := range ref {
		if merged[i] != ref[i] {
			t.Fatalf("alarm %d diverged across the drain:\n  got  %+v\n  want %+v", i, merged[i], ref[i])
		}
	}

	// Stale ingest on a is a typed 409 pointing at b, not a silent drop.
	var enc wire.Encoder
	rec := timeseries.Record{VehicleID: dr.Vehicles[0], Time: time.Now().UTC()}
	enc.Record(&rec)
	enc.End()
	resp, body = postBody(t, tsa.URL+"/ingest", "application/octet-stream", enc.Bytes())
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale ingest: %d %s, want 409", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("409 without a Retry-After header")
	}
	var ua unavailableResponse
	if err := json.Unmarshal(body, &ua); err != nil {
		t.Fatal(err)
	}
	if ua.Vehicle != dr.Vehicles[0] || ua.State != "migrating" || ua.Peer != tsb.URL {
		t.Fatalf("409 body %s, want vehicle %s migrating at %s", body, dr.Vehicles[0], tsb.URL)
	}
	if st := sa.eng.Stats(); st.Drops != 0 {
		t.Fatalf("source dropped %d alarms", st.Drops)
	}

	// The drain shows up in the control-plane metrics family.
	if resp, metrics := postGet(t, tsa.URL+"/metrics"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(metrics), "pdm_ctrl_handoffs_total "+strconv.Itoa(dr.Moved)) {
		t.Fatalf("/metrics does not count %d handoffs:\n%s", dr.Moved, metrics)
	}
}

// TestServeCordonEndpoint pins the admin fence: cordoned vehicles 409
// on ingest with the fence state in the body, and ?off=1 readmits.
func TestServeCordonEndpoint(t *testing.T) {
	s, ts := namedServer(t, "", nil)
	frame := func() []byte {
		var enc wire.Encoder
		rec := timeseries.Record{VehicleID: "veh-x", Time: time.Now().UTC()}
		enc.Record(&rec)
		enc.End()
		return enc.Bytes()
	}()

	resp, body := postBody(t, ts.URL+"/admin/cordon?vehicle=veh-x", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cordon: %d %s", resp.StatusCode, body)
	}
	resp, body = postBody(t, ts.URL+"/ingest", "application/octet-stream", frame)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cordoned ingest: %d %s, want 409", resp.StatusCode, body)
	}
	var ua unavailableResponse
	if err := json.Unmarshal(body, &ua); err != nil {
		t.Fatal(err)
	}
	if ua.Vehicle != "veh-x" || ua.State != "cordoned" || ua.Refused != 1 {
		t.Fatalf("409 body %s", body)
	}
	if resp, body := postBody(t, ts.URL+"/admin/cordon?vehicle=veh-x&off=1", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("uncordon: %d %s", resp.StatusCode, body)
	}
	if resp, body := postBody(t, ts.URL+"/ingest", "application/octet-stream", frame); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-uncordon ingest: %d %s", resp.StatusCode, body)
	}
	if st := s.eng.StatsConsistent(); st.RecordsIn != 1 {
		t.Fatalf("engine admitted %d records, want exactly the readmitted one", st.RecordsIn)
	}
}

// TestServePlacementRouting gives an instance a peer on the ring and
// checks that vehicles hashed to the peer are refused with the owner's
// URL while locally-owned vehicles admit normally.
func TestServePlacementRouting(t *testing.T) {
	peerURL := "http://peer.invalid:9"
	s, ts := namedServer(t, "a", map[string]string{"b": peerURL})

	// Find one vehicle per owner deterministically off the same ring.
	var mine, theirs string
	for i := 0; mine == "" || theirs == ""; i++ {
		id := "veh-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26%10))
		if s.ring.Owner(id) == "a" {
			if mine == "" {
				mine = id
			}
		} else if theirs == "" {
			theirs = id
		}
		if i > 10_000 {
			t.Fatal("ring never split ownership")
		}
	}

	var enc wire.Encoder
	base := time.Now().UTC()
	for i, id := range []string{mine, theirs} {
		rec := timeseries.Record{VehicleID: id, Time: base.Add(time.Duration(i) * time.Minute)}
		enc.Record(&rec)
	}
	enc.End()

	resp, body := postBody(t, ts.URL+"/ingest", "application/octet-stream", enc.Bytes())
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("misrouted batch: %d %s, want 409", resp.StatusCode, body)
	}
	var ua unavailableResponse
	if err := json.Unmarshal(body, &ua); err != nil {
		t.Fatal(err)
	}
	if ua.Vehicle != theirs || ua.State != "misrouted" || ua.Refused != 1 || ua.Peer != peerURL {
		t.Fatalf("misroute 409 body %s, want %s refused toward %s", body, theirs, peerURL)
	}
	// The locally-owned record was admitted despite the 409.
	if st := s.eng.StatsConsistent(); st.RecordsIn != 1 {
		t.Fatalf("engine admitted %d records, want 1 (only %s)", st.RecordsIn, mine)
	}

	// Placement lists both ring members with the peer's URL.
	resp, body = postGet(t, ts.URL+"/admin/placement")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("placement: %d", resp.StatusCode)
	}
	var pl struct {
		Self    string            `json:"self"`
		Members []placementMember `json:"members"`
	}
	if err := json.Unmarshal(body, &pl); err != nil {
		t.Fatal(err)
	}
	if pl.Self != "a" || len(pl.Members) != 2 ||
		pl.Members[0].Name != "a" || pl.Members[1].Name != "b" || pl.Members[1].URL != peerURL {
		t.Fatalf("placement body %s", body)
	}
}

// TestServeAdoptionOverridesRing pins the sticky-placement override:
// after a drain, the adopting instance must admit ingest for the moved
// vehicle even though the static ring still places it on the origin.
// Without the override the vehicle is unreachable — the origin 409s
// with "migrating" toward the adoptee and the adoptee 409s with
// "misrouted" back toward the origin.
func TestServeAdoptionOverridesRing(t *testing.T) {
	// b is built first with a placeholder URL for a (the ring only
	// needs the names); the URL is patched once a's listener exists.
	sb, tsb := namedServer(t, "b", map[string]string{"a": ""})
	sa, tsa := namedServer(t, "a", map[string]string{"b": tsb.URL})
	sb.peers["a"] = tsa.URL

	var veh string
	for i := 0; veh == ""; i++ {
		if id := "veh-" + strconv.Itoa(i); sa.ring.Owner(id) == "b" {
			veh = id
		}
		if i > 10_000 {
			t.Fatal("ring never placed a vehicle on b")
		}
	}
	base := time.Now().UTC()
	frame := func(minute int) []byte {
		var enc wire.Encoder
		rec := timeseries.Record{VehicleID: veh, Time: base.Add(time.Duration(minute) * time.Minute)}
		enc.Record(&rec)
		enc.End()
		return enc.Bytes()
	}

	if resp, body := postBody(t, tsb.URL+"/ingest", "application/octet-stream", frame(0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner ingest on b: %d %s", resp.StatusCode, body)
	}
	if resp, body := postBody(t, tsb.URL+"/admin/drain?vehicle="+veh+"&to="+tsa.URL, "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain b->a: %d %s", resp.StatusCode, body)
	}

	// The adoptee admits the ring-mismatched vehicle.
	if resp, body := postBody(t, tsa.URL+"/ingest", "application/octet-stream", frame(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain ingest on a: %d %s, want 200", resp.StatusCode, body)
	}
	if st := sa.eng.StatsConsistent(); st.RecordsIn != 1 {
		t.Fatalf("a admitted %d records, want 1", st.RecordsIn)
	}
	resp, body := postGet(t, tsa.URL+"/admin/placement")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("placement: %d", resp.StatusCode)
	}
	var pl struct {
		Adopted []string `json:"adopted"`
	}
	if err := json.Unmarshal(body, &pl); err != nil {
		t.Fatal(err)
	}
	if len(pl.Adopted) != 1 || pl.Adopted[0] != veh {
		t.Fatalf("placement adopted %v, want [%s]", pl.Adopted, veh)
	}

	// Draining it home clears the override: a goes back to refusing
	// the vehicle as misrouted.
	if resp, body := postBody(t, tsa.URL+"/admin/drain?vehicle="+veh+"&to="+tsb.URL, "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain a->b: %d %s", resp.StatusCode, body)
	}
	resp, body = postBody(t, tsa.URL+"/ingest", "application/octet-stream", frame(2))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-drain-home ingest on a: %d %s, want 409", resp.StatusCode, body)
	}
	var ua unavailableResponse
	if err := json.Unmarshal(body, &ua); err != nil {
		t.Fatal(err)
	}
	if ua.Vehicle != veh || ua.State != "misrouted" || ua.Peer != tsb.URL {
		t.Fatalf("409 body %s, want %s misrouted toward %s", body, veh, tsb.URL)
	}
	if st := sb.eng.StatsConsistent(); st.RecordsIn != 1 {
		t.Fatalf("b admitted %d records, want 1", st.RecordsIn)
	}
}

// TestServeDrainKeepsOperatorFence pins the unknown-vehicle drain
// path: a vehicle pre-fenced via /admin/cordon that never built a
// handler must keep its fence through a drain that names it — the
// drain has nothing to move but must not silently reopen ingest.
// Also pins that a plain cordon 409 carries no peer hint.
func TestServeDrainKeepsOperatorFence(t *testing.T) {
	s, ts := namedServer(t, "a", nil)
	base := time.Now().UTC()

	if resp, body := postBody(t, ts.URL+"/admin/cordon?vehicle=veh-z", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cordon: %d %s", resp.StatusCode, body)
	}
	// The target URL is never contacted: the vehicle has no handler, so
	// there is nothing to ship.
	resp, body := postBody(t, ts.URL+"/admin/drain?vehicle=veh-z&to=http://peer.invalid:9", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain of unknown vehicle: %d %s", resp.StatusCode, body)
	}
	var dr drainResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Moved != 0 {
		t.Fatalf("drain moved %d vehicles, want 0", dr.Moved)
	}

	resp, body = postBody(t, ts.URL+"/ingest", "application/octet-stream", singleRecordFrame("veh-z", base, 0))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-drain ingest: %d %s, want 409 (fence erased by the drain?)", resp.StatusCode, body)
	}
	var ua unavailableResponse
	if err := json.Unmarshal(body, &ua); err != nil {
		t.Fatal(err)
	}
	if ua.State != "cordoned" {
		t.Fatalf("409 state %q, want cordoned", ua.State)
	}
	if ua.Peer != "" {
		t.Fatalf("cordon 409 carries peer hint %q, want none", ua.Peer)
	}
	if st := s.eng.StatsConsistent(); st.RecordsIn != 0 {
		t.Fatalf("engine admitted %d records through the fence", st.RecordsIn)
	}
}

// TestServeDrainPartialFailure pins the transactional per-vehicle
// handoff: when the peer fails mid-drain, vehicles it confirmed stay
// moved, the failing vehicle is re-adopted locally, and no vehicle is
// ever live on both instances — the split-brain a bulk re-adopt would
// produce.
func TestServeDrainPartialFailure(t *testing.T) {
	sa, tsa := namedServer(t, "a", nil)
	sb, tsb := namedServer(t, "b", nil)

	// A flaky front for b: the first handoff POST forwards verbatim,
	// every later one fails before reaching b.
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			http.Error(w, "injected failure", http.StatusServiceUnavailable)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := http.Post(tsb.URL+r.URL.Path, r.Header.Get("Content-Type"), bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		fwd, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		w.Write(fwd) //nolint:errcheck // test server
	}))
	t.Cleanup(flaky.Close)

	base := time.Now().UTC()
	for _, v := range []string{"veh-1", "veh-2"} {
		if resp, body := postBody(t, tsa.URL+"/ingest", "application/octet-stream", singleRecordFrame(v, base, 0)); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed ingest %s: %d %s", v, resp.StatusCode, body)
		}
	}

	// VehicleIDs drains in sorted order: veh-1 ships first (confirmed),
	// veh-2 hits the injected failure.
	resp, body := postBody(t, tsa.URL+"/admin/drain?to="+flaky.URL, "", nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("partial drain: %d %s, want 502", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "after 1 vehicles moved") {
		t.Fatalf("drain error does not report the confirmed vehicles: %s", body)
	}

	// Exactly one live copy of each vehicle: veh-1 on b, veh-2 back on a.
	if got := sb.eng.VehicleIDs(); len(got) != 1 || got[0] != "veh-1" {
		t.Fatalf("b holds %v, want [veh-1]", got)
	}
	if got := sa.eng.VehicleIDs(); len(got) != 1 || got[0] != "veh-2" {
		t.Fatalf("a holds %v, want [veh-2]", got)
	}

	// The re-adopted vehicle serves on a again; the moved one 409s with
	// the drain target recorded per vehicle.
	if resp, body := postBody(t, tsa.URL+"/ingest", "application/octet-stream", singleRecordFrame("veh-2", base, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-adopted ingest: %d %s, want 200", resp.StatusCode, body)
	}
	resp, body = postBody(t, tsa.URL+"/ingest", "application/octet-stream", singleRecordFrame("veh-1", base, 1))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("moved-vehicle ingest: %d %s, want 409", resp.StatusCode, body)
	}
	var ua unavailableResponse
	if err := json.Unmarshal(body, &ua); err != nil {
		t.Fatal(err)
	}
	if ua.Vehicle != "veh-1" || ua.State != "migrating" || ua.Peer != flaky.URL {
		t.Fatalf("409 body %s, want veh-1 migrating toward %s", body, flaky.URL)
	}
}

// TestServeDrainPeerConflictKeepsFence pins the double-adoption guard:
// when the peer already serves a live handler for the vehicle, the
// drain must NOT re-adopt the extracted state locally — that would put
// the vehicle live on both instances. The local copy stays fenced with
// the 409 hint pointing at the peer, whose copy wins.
func TestServeDrainPeerConflictKeepsFence(t *testing.T) {
	sa, tsa := namedServer(t, "a", nil)
	sb, tsb := namedServer(t, "b", nil)
	base := time.Now().UTC()

	for _, ts := range []*httptest.Server{tsa, tsb} {
		if resp, body := postBody(t, ts.URL+"/ingest", "application/octet-stream", singleRecordFrame("veh-dup", base, 0)); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed ingest: %d %s", resp.StatusCode, body)
		}
	}

	resp, body := postBody(t, tsa.URL+"/admin/drain?vehicle=veh-dup&to="+tsb.URL, "", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting drain: %d %s, want 409", resp.StatusCode, body)
	}

	// a must not hold a live handler — the peer's copy is the only one.
	if got := sa.eng.VehicleIDs(); len(got) != 0 {
		t.Fatalf("origin still serves %v after the conflict", got)
	}
	resp, body = postBody(t, tsa.URL+"/ingest", "application/octet-stream", singleRecordFrame("veh-dup", base, 1))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-conflict ingest on a: %d %s, want 409", resp.StatusCode, body)
	}
	var ua unavailableResponse
	if err := json.Unmarshal(body, &ua); err != nil {
		t.Fatal(err)
	}
	if ua.State != "migrating" || ua.Peer != tsb.URL {
		t.Fatalf("409 body %s, want migrating toward %s", body, tsb.URL)
	}

	// b keeps serving its copy untouched.
	if resp, body := postBody(t, tsb.URL+"/ingest", "application/octet-stream", singleRecordFrame("veh-dup", base, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("peer ingest after conflict: %d %s, want 200", resp.StatusCode, body)
	}
	if st := sb.eng.StatsConsistent(); st.RecordsIn != 2 {
		t.Fatalf("peer admitted %d records, want 2", st.RecordsIn)
	}
}

// TestServeOverrideTableRoundTrip walks one vehicle b -> a -> b -> a:
// adopted against the ring, drained away, adopted back. Each handoff
// must overwrite the vehicle's one override entry rather than leave an
// adoption and a drain hint side by side, and /admin/placement must
// read exactly as it did when adoptions and drains lived in two tables
// (the bodies below were captured from that code).
func TestServeOverrideTableRoundTrip(t *testing.T) {
	sb, tsb := namedServer(t, "b", map[string]string{"a": ""})
	sa, tsa := namedServer(t, "a", map[string]string{"b": tsb.URL})
	sb.peers["a"] = tsa.URL

	var veh string
	for i := 0; veh == ""; i++ {
		if id := "veh-" + strconv.Itoa(i); sa.ring.Owner(id) == "b" {
			veh = id
		}
		if i > 10_000 {
			t.Fatal("ring never placed a vehicle on b")
		}
	}
	if resp, body := postBody(t, tsb.URL+"/ingest", "application/octet-stream",
		singleRecordFrame(veh, time.Now().UTC(), 0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner ingest on b: %d %s", resp.StatusCode, body)
	}
	for _, hop := range []struct{ from, to *httptest.Server }{{tsb, tsa}, {tsa, tsb}, {tsb, tsa}} {
		if resp, body := postBody(t, hop.from.URL+"/admin/drain?vehicle="+veh+"&to="+hop.to.URL, "", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("drain: %d %s", resp.StatusCode, body)
		}
	}

	for _, tc := range []struct {
		name     string
		s        *server
		ts       *httptest.Server
		override map[string]string
		body     string
	}{
		{"a", sa, tsa, map[string]string{veh: ""},
			`{"self":"a","members":[{"name":"a"},{"name":"b","url":"` + tsb.URL + `"}],"residents":["` + veh +
				`"],"adopted":["` + veh + `"],"events_total":4,"events_url":"/admin/events"}` + "\n"},
		{"b", sb, tsb, map[string]string{veh: tsa.URL},
			`{"self":"b","members":[{"name":"a","url":"` + tsa.URL + `"},{"name":"b"}],"residents":null,"migrated":{"` + veh +
				`":"` + tsa.URL + `"},"events_total":5,"events_url":"/admin/events"}` + "\n"},
	} {
		tc.s.overrideMu.Lock()
		got := len(tc.s.override)
		dest, ok := tc.s.override[veh]
		tc.s.overrideMu.Unlock()
		if got != 1 || !ok || dest != tc.override[veh] {
			t.Errorf("%s: %d override entries, %s -> %q (present %v); want exactly %v", tc.name, got, veh, dest, ok, tc.override)
		}
		resp, body := postGet(t, tc.ts.URL+"/admin/placement")
		if resp.StatusCode != http.StatusOK || string(body) != tc.body {
			t.Errorf("%s: /admin/placement = %d\n got %s\nwant %s", tc.name, resp.StatusCode, body, tc.body)
		}
	}
}
