package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/wire"
)

const (
	scenarioSeeds = 32 // generated schedules: seeds 1 to scenarioSeeds
	anyStatus     = -1 // as want: 200, or 409 for a send and 502 for a drain
)

// instance is one server of a scenario; ring ones are each other's peers.
type instance struct {
	name   string
	shards int
	ring   bool
}

// step is one action on instance on: ingest POSTs one frame of a
// record per vehicle of veh (comma-separated) at minute; send has the
// producer post each vehicle of veh ("*": the fleet) its next chunk, to
// on if set; get GETs path; cordon and uncordon fence veh; drain moves
// veh, or ("") everything, to to; fault gives on's calls to peer to the
// faults ("ok", "drop-request", "drop-response", "503", "refuse") in
// turn, the last repeating (none heals); heal lifts all faults, re-issues
// the failed drains and sends the backlog. want is the status (0: 200); body, with
// "{x}" for instance x's URL and "{@x}" for the first veh-N the ring
// places on x (as "@x" in veh), is a substring of the reply (a whole
// JSON reply pins it byte for byte). With state set the reply is the
// typed 409, Retry-After 1, for veh's last vehicle, refused (if set)
// and peer ("": no hint).
type step struct {
	op, on, veh, to, path, body, state, peer string
	minute, want, refused                    int
	faults                                   []string
}

// scenario is one row; check runs after its steps.
type scenario struct {
	name      string
	instances []instance
	steps     []step
	check     func(*cluster)
}

// TestServeScenarios runs real servers on real listeners through the
// rows below and the seeded schedules, a fault-injecting RoundTripper on
// each peer client standing in for the network. After every step no
// vehicle may be live (resident, unfenced) on two instances.
func TestServeScenarios(t *testing.T) {
	ab := []instance{{"a", 2, false}, {"b", 3, false}}
	ring := []instance{{"a", 2, true}, {"b", 2, true}}
	half := []step{{op: "send", on: "a", veh: "*"}, {op: "send", on: "a", veh: "*"}}
	drain := slices.Clip(append(half, step{op: "drain", on: "a", to: "b",
		body: `{"moved":5,"vehicles":["veh-00","veh-01","veh-02","veh-03","veh-04"],"to":"{b}"}`}))
	placement := `{"self":"a","members":[{"name":"a"},{"name":"b","url":"{b}"}],"residents":`
	rows := []scenario{
		// Half the fleet into a, all drained to b, the rest into b: the
		// journals merge to one instance's; stale ingest on a 409s toward b.
		{name: "drain-handoff", instances: ab, steps: append(drain,
			step{op: "get", on: "a", path: "/admin/placement", body: `{"self":"a","members":[{"name":"a"}],"residents":null,` +
				`"migrated":{"veh-00":"{b}","veh-01":"{b}","veh-02":"{b}","veh-03":"{b}","veh-04":"{b}"},"events_total":10,"events_url":"/admin/events"}` + "\n"},
			step{op: "get", on: "b", path: "/admin/placement", body: `"residents":["veh-00","veh-01","veh-02","veh-03","veh-04"]`},
			step{op: "send", on: "b", veh: "*"}, step{op: "send", on: "b", veh: "*"},
			step{op: "ingest", on: "a", veh: "veh-00", want: 409, state: "migrating", refused: 1, peer: "b"},
			step{op: "get", on: "a", path: "/metrics", body: "\npdm_ctrl_handoffs_total 5\n"}),
			check: (*cluster).wholeFleet},
		// The admin fence: a cordoned vehicle 409s, ?off=1 readmits it.
		{name: "cordon-endpoint", instances: ab[:1], steps: []step{
			{op: "cordon", on: "a", veh: "veh-x"},
			{op: "ingest", on: "a", veh: "veh-x", want: 409, state: "cordoned", refused: 1},
			{op: "uncordon", on: "a", veh: "veh-x"},
			{op: "ingest", on: "a", veh: "veh-x"},
		}, check: func(c *cluster) { c.recordsIn("a", 1) }},
		// One batch of a's vehicle and b's: b's is refused toward b.
		{name: "placement-routing", instances: ring, steps: []step{
			{op: "ingest", on: "a", veh: "@a,@b", want: 409, state: "misrouted", refused: 1, peer: "b"},
			{op: "get", on: "a", path: "/admin/placement", body: placement + `["{@a}"],"events_total":0,"events_url":"/admin/events"}` + "\n"},
		}, check: func(c *cluster) { c.recordsIn("a", 1) }},
		// The adoptee admits a vehicle the ring places elsewhere, until
		// it is drained home.
		{name: "adoption-overrides-ring", instances: ring, steps: []step{
			{op: "ingest", on: "b", veh: "@b"},
			{op: "drain", on: "b", to: "a", veh: "@b"},
			{op: "ingest", on: "a", veh: "@b", minute: 1},
			{op: "get", on: "a", path: "/admin/placement", body: `"adopted":["{@b}"]`},
			{op: "drain", on: "a", to: "b", veh: "@b"},
			{op: "ingest", on: "a", veh: "@b", minute: 2, want: 409, state: "misrouted", peer: "b"},
		}, check: func(c *cluster) { c.recordsIn("a", 1); c.recordsIn("b", 1) }},
		// Draining a fenced, unhandled vehicle keeps its fence; a bare ?to= 400s.
		{name: "drain-keeps-operator-fence", instances: ab[:1], steps: []step{
			{op: "cordon", on: "a", veh: "veh-z"},
			{op: "drain", on: "a", to: "peer", veh: "veh-z", want: 400},
			{op: "drain", on: "a", to: "http://peer.invalid:9", veh: "veh-z", body: `"moved":0`},
			{op: "ingest", on: "a", veh: "veh-z", want: 409, state: "cordoned"},
		}, check: func(c *cluster) { c.recordsIn("a", 0) }},
		// b refuses the second handoff: veh-1 stays moved, veh-2 comes back.
		{name: "drain-partial-failure", instances: ab, steps: []step{
			{op: "ingest", on: "a", veh: "veh-1,veh-2"},
			{op: "fault", on: "a", to: "b", faults: []string{"ok", "503"}},
			{op: "drain", on: "a", to: "b", want: 502, body: "after 1 vehicles moved"},
			{op: "get", on: "a", path: "/admin/placement", body: `"residents":["veh-2"]`},
			{op: "get", on: "b", path: "/admin/placement", body: `"residents":["veh-1"]`},
			{op: "ingest", on: "a", veh: "veh-2", minute: 1},
			{op: "ingest", on: "a", veh: "veh-1", minute: 1, want: 409, state: "migrating", peer: "b"},
		}},
		// b already serves the vehicle (cordoned: one live copy at a time),
		// so a's drain 409s and a keeps its copy fenced toward b.
		{name: "drain-peer-conflict-keeps-fence", instances: ab, steps: []step{
			{op: "ingest", on: "b", veh: "veh-dup"},
			{op: "cordon", on: "b", veh: "veh-dup"},
			{op: "ingest", on: "a", veh: "veh-dup"},
			{op: "drain", on: "a", to: "b", veh: "veh-dup", want: 409},
			{op: "get", on: "a", path: "/admin/placement", body: `"residents":null`},
			{op: "uncordon", on: "b", veh: "veh-dup"},
			{op: "ingest", on: "a", veh: "veh-dup", minute: 1, want: 409, state: "migrating", peer: "b"},
			{op: "ingest", on: "b", veh: "veh-dup", minute: 1},
		}, check: func(c *cluster) { c.recordsIn("b", 2) }},
		// b -> a -> b -> a: each handoff overwrites the one override entry
		// that placement lists, byte for byte as with two tables.
		{name: "override-table-round-trip", instances: ring, steps: []step{
			{op: "ingest", on: "b", veh: "@b"},
			{op: "drain", on: "b", to: "a", veh: "@b"},
			{op: "drain", on: "a", to: "b", veh: "@b"},
			{op: "drain", on: "b", to: "a", veh: "@b"},
			{op: "get", on: "a", path: "/admin/placement", body: placement + `["{@b}"],"adopted":["{@b}"],"events_total":4,"events_url":"/admin/events"}` + "\n"},
			{op: "get", on: "b", path: "/admin/placement", body: `{"self":"b","members":[{"name":"a","url":"{a}"},{"name":"b"}],"residents":null,` +
				`"migrated":{"{@b}":"{a}"},"events_total":5,"events_url":"/admin/events"}` + "\n"},
		}},
		// The drain's audit trail, then a cordon and uncordon on b.
		{name: "admin-events-drain-audit", instances: ab, steps: append(drain,
			step{op: "cordon", on: "b", veh: "veh-00"}, step{op: "uncordon", on: "b", veh: "veh-00"},
			step{op: "get", on: "a", path: "/metrics", body: `pdm_ctrl_events_total{kind="drain-finish"} 5`},
			step{op: "get", on: "a", path: "/admin/placement", body: `"events_total":10,"events_url":"/admin/events"}`}),
			check: auditDrain},
		// /fleet embeds the placement view with peers, and not without.
		{name: "fleet-placement-view", instances: append(ring, instance{"solo", 2, false}), check: func(c *cluster) {
			var routed, solo struct{ Placement *placementResponse }
			c.decode("a", "/fleet", &routed)
			c.decode("solo", "/fleet", &solo)
			if p := routed.Placement; p == nil || p.Self != "a" || len(p.Members) != 2 || p.EventsURL != "/admin/events" || solo.Placement != nil {
				c.t.Fatalf("/fleet placement %+v with peers, %+v without", p, solo.Placement)
			}
		}},
		// veh-00's handoff lands, its reply is lost and b is unreachable: a
		// holds it fenced, unhinted; the re-issued drain finds it on b.
		{name: "lost-response-peer-unreachable", instances: ab, check: (*cluster).wholeFleet, steps: append(half,
			step{op: "fault", on: "a", to: "b", faults: []string{"drop-response", "drop-request"}},
			step{op: "drain", on: "a", to: "b", want: 502},
			step{op: "ingest", on: "a", veh: "veh-00", want: 409, state: "migrating"},
			step{op: "fault", on: "a", to: "b"},
			step{op: "drain", on: "a", to: "b", body: `"moved":5`},
			step{op: "send", on: "b", veh: "*"}, step{op: "send", on: "b", veh: "*"})},
	}
	fx := splitFrames(t)
	for seed := int64(1); seed <= scenarioSeeds; seed++ {
		rows = append(rows, seededScenario(seed, fx.vehicles))
	}
	for _, sc := range rows {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			defer func() {
				if t.Failed() && strings.HasPrefix(sc.name, "seed-") {
					t.Logf("as a row: %s", strings.ReplaceAll(fmt.Sprintf("{name: %q, instances: %#v, steps: %#v, check: (*cluster).wholeFleet},",
						sc.name, sc.instances, sc.steps), "main.", ""))
				}
			}()
			newCluster(t, fx, sc.instances).run(sc)
		})
	}
}

// auditDrain checks admin-events-drain-audit's event logs: on a, a start
// then a finish with a duration per vehicle; on b, an adopt per vehicle
// then the cordon and uncordon; and the ?vehicle= filter on both.
func auditDrain(c *cluster) {
	events := func(name, query string) (got []string) {
		var er struct{ Events []obs.ControlEvent }
		c.decode(name, "/admin/events"+query, &er)
		for _, e := range er.Events {
			if e.Engine != name || name == "a" && e.Peer != c.url["b"] || e.Kind == obs.EventDrainFinish && e.DurationS <= 0 {
				c.t.Fatalf("event %+v", e)
			}
			got = append(got, e.Kind+" "+e.VehicleID)
		}
		return got
	}
	var src, dst []string
	for _, v := range c.fx.vehicles {
		src = append(src, obs.EventDrainStart+" "+v, obs.EventDrainFinish+" "+v)
		dst = append(dst, obs.EventAdopt+" "+v)
	}
	fence := []string{obs.EventCordon + " " + c.fx.vehicles[0], obs.EventUncordon + " " + c.fx.vehicles[0]}
	for _, w := range [][2][]string{
		{events("a", "?n=0"), src}, {events("a", "?vehicle="+c.fx.vehicles[0]), src[:2]},
		{events("b", "?n=0"), append(dst, fence...)}, {events("b", "?vehicle="+c.fx.vehicles[0]), append(dst[:1:1], fence...)},
	} {
		if !slices.Equal(w[0], w[1]) {
			c.t.Fatalf("events %v, want %v", w[0], w[1])
		}
	}
}

// seededScenario is seed's schedule over three ring instances: the
// fleet sent one vehicle chunk per POST (a vehicle's first to a random
// instance), drains of everything or one vehicle, peer faults and
// k-step partitions between random pairs, then a heal step.
func seededScenario(seed int64, vehicles []string) scenario {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"a", "b", "c"}
	sc := scenario{name: fmt.Sprintf("seed-%d", seed), check: (*cluster).wholeFleet}
	for _, n := range names {
		sc.instances = append(sc.instances, instance{n, 1 + rng.Intn(3), true})
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	sent, heals := map[string]int{}, map[int][]step{}
	for i := 0; i < 40; i++ {
		sc.steps = append(sc.steps, heals[i]...)
		j := rng.Intn(3)
		st := step{on: names[j], to: names[(j+1+rng.Intn(2))%3], want: anyStatus}
		switch r := rng.Intn(10); {
		case r < 5:
			st.op, st.veh, st.to = "send", pick(vehicles), ""
			if sent[st.veh]++; sent[st.veh] > 1 {
				st.on = ""
			}
		case r < 7:
			st.op = "drain"
			if rng.Intn(2) == 0 {
				st.veh = pick(vehicles)
			}
		case r < 9:
			st.op, st.faults = "fault", []string{pick([]string{"drop-request", "drop-response", "503", "refuse"})}
			if rng.Intn(2) == 0 {
				st.faults = append(st.faults, "ok")
			}
		default:
			k := i + 1 + rng.Intn(4)
			for _, p := range [][2]string{{st.on, st.to}, {st.to, st.on}} {
				sc.steps = append(sc.steps, step{op: "fault", on: p[0], to: p[1], faults: []string{"drop-request"}})
				heals[k] = append(heals[k], step{op: "fault", on: p[0], to: p[1]})
			}
			continue
		}
		if sent[st.veh] <= 4 {
			sc.steps = append(sc.steps, st)
		}
	}
	sc.steps = append(sc.steps, step{op: "heal"})
	return sc
}

// fleetFixture is the drain fleet as four NVWIRE1 chunks per vehicle in
// stream order, and ref the journal of one instance replaying it whole.
type fleetFixture struct {
	vehicles []string
	chunks   map[string][][]byte
	records  int
	ref      []string
}

func splitFrames(t *testing.T) *fleetFixture {
	cfg := fleetsim.SmallConfig()
	cfg.NumVehicles, cfg.Days, cfg.RecordedVehicles, cfg.RecordedFailures, cfg.HiddenFailures = 5, 120, 4, 2, 1
	f := fleetsim.Generate(cfg)
	fx := &fleetFixture{chunks: map[string][][]byte{}, records: len(f.Records)}
	recs, evs := map[string][]timeseries.Record{}, map[string][]obd.Event{}
	for _, r := range f.Records {
		recs[r.VehicleID] = append(recs[r.VehicleID], r)
	}
	for _, e := range f.Events {
		evs[e.VehicleID] = append(evs[e.VehicleID], e)
	}
	for v, rs := range recs {
		fx.vehicles = append(fx.vehicles, v)
		for k, r0, e0 := 1, 0, 0; k <= 4; k++ {
			r1, e1 := len(rs), len(evs[v])
			if k < 4 {
				r1 = k * len(rs) / 4
				e1 = sort.Search(e1, func(i int) bool { return evs[v][i].Time.After(rs[r1].Time) })
			}
			frames, _, err := wire.EncodeStream(nil, rs[r0:r1], evs[v][e0:e1], 256)
			if err != nil {
				t.Fatal(err)
			}
			fx.chunks[v], r0, e0 = append(fx.chunks[v], frames), r1, e1
		}
	}
	sort.Strings(fx.vehicles)
	ref, _ := namedServer(t, "ref", nil)
	if err := ref.eng.Replay(f.Records, f.Events); err != nil {
		t.Fatal(err)
	}
	ref.eng.Flush()
	ref.eng.VehicleIDs() // barrier: every alarm is journaled
	if fx.ref = journalKeys(ref); len(fx.ref) == 0 {
		t.Fatal("the reference raised no alarms; journal identity would be vacuous")
	}
	return fx
}

// cluster is one running scenario: its servers, the faults on their
// peer links, and the producer's state.
type cluster struct {
	t       *testing.T
	fx      *fleetFixture
	names   []string
	srv     map[string]*server
	url     map[string]string
	mu      sync.Mutex
	faults  map[[2]string][]string // by caller name and callee URL
	next    map[string]int         // the producer's next chunk per vehicle
	at      map[string]string      // the URL the producer sends a vehicle to
	pending map[string]bool        // refused with no hint: retried next step
	failed  []step                 // drains to re-issue on heal
}

// newCluster opens every listener first, so each server is built with
// its peers' URLs, and routes each server's peer calls through a
// peerLink.
func newCluster(t *testing.T, fx *fleetFixture, instances []instance) *cluster {
	c := &cluster{t: t, fx: fx, srv: map[string]*server{}, url: map[string]string{},
		faults: map[[2]string][]string{}, next: map[string]int{}, at: map[string]string{}, pending: map[string]bool{}}
	listeners := map[string]*httptest.Server{}
	for _, in := range instances {
		ts := httptest.NewUnstartedServer(nil)
		listeners[in.name], c.url[in.name] = ts, "http://"+ts.Listener.Addr().String()
		c.names = append(c.names, in.name)
	}
	for _, in := range instances {
		peers := map[string]string{}
		for _, o := range instances {
			if in.ring && o.ring && o.name != in.name {
				peers[o.name] = c.url[o.name]
			}
		}
		s, err := newServer(serverConfig{shards: in.shards, factor: 4, journalCap: 1 << 14, name: in.name, peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		s.client = &http.Client{Transport: peerLink{in.name, c}, Timeout: 30 * time.Second}
		ts := listeners[in.name]
		ts.Config.Handler = s.mux
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			s.close() //nolint:errcheck // engine already exercised
		})
		c.srv[in.name] = s
	}
	return c
}

// peerLink is a server's peer transport: each call takes the next fault
// set for its (caller, callee) pair.
type peerLink struct {
	from string
	c    *cluster
}

func (l peerLink) RoundTrip(req *http.Request) (*http.Response, error) {
	l.c.mu.Lock()
	pair, fault := [2]string{l.from, "http://" + req.URL.Host}, ""
	if f := l.c.faults[pair]; len(f) > 0 {
		fault, l.c.faults[pair] = f[0], f[min(1, len(f)-1):]
	}
	l.c.mu.Unlock()
	switch fault {
	case "drop-request":
		return nil, errors.New("injected: request dropped")
	case "refuse": // a failed dial: the request certainly never left
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("injected: connection refused")}
	case "503":
		rec := httptest.NewRecorder()
		rec.WriteHeader(http.StatusServiceUnavailable)
		return rec.Result(), nil
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && fault == "drop-response" {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // the reply is dropped
		resp.Body.Close()
		return nil, errors.New("injected: response dropped")
	}
	return resp, err
}

// run plays the steps, re-sending the vehicles refused without a hint
// after the next one, and checks after each that none is live twice.
func (c *cluster) run(sc scenario) {
	for i, st := range sc.steps {
		retry := maps.Clone(c.pending)
		c.step(i, st)
		for v := range retry {
			if c.pending[v] {
				c.send(v)
			}
		}
		c.live(fmt.Sprintf("after step %d", i))
	}
	if sc.check != nil {
		sc.check(c)
	}
}

func (c *cluster) step(i int, st step) {
	var resp *http.Response
	var body []byte
	switch st.op {
	case "ingest":
		vs := strings.Split(st.veh, ",")
		for j, v := range vs {
			vs[j] = c.vehicle(v)
		}
		frame := recordFrame(time.Date(2023, 3, 1, 8, 0, 0, 0, time.UTC), st.minute, vs...)
		resp, body = postBody(c.t, c.url[st.on]+"/ingest", "application/octet-stream", frame)
	case "send":
		vs := []string{st.veh}
		if st.veh == "*" {
			vs = c.fx.vehicles
		}
		for _, v := range vs {
			c.at[v] = cmp.Or(c.url[st.on], c.at[v])
			if resp, body = c.send(v); resp != nil {
				c.expect(i, st, v, resp, body)
			}
		}
		return
	case "get":
		resp, body = postGet(c.t, c.url[st.on]+st.path)
	case "cordon", "uncordon":
		q := "/admin/cordon?vehicle=" + c.vehicle(st.veh)
		if st.op == "uncordon" {
			q += "&off=1"
		}
		resp, body = postBody(c.t, c.url[st.on]+q, "", nil)
	case "drain":
		q := "/admin/drain?vehicle=" + c.vehicle(st.veh) + "&to=" + cmp.Or(c.url[st.to], st.to)
		if resp, body = postBody(c.t, c.url[st.on]+q, "", nil); resp.StatusCode != http.StatusOK {
			c.failed = append(c.failed, st)
		}
	case "fault":
		c.mu.Lock()
		c.faults[[2]string{st.on, c.url[st.to]}] = st.faults
		c.mu.Unlock()
		return
	case "heal":
		c.heal()
		return
	}
	c.expect(i, st, st.veh, resp, body)
}

// expect holds one reply to its step's expectations.
func (c *cluster) expect(i int, st step, veh string, resp *http.Response, body []byte) {
	ok := resp.StatusCode == cmp.Or(st.want, http.StatusOK)
	if st.want == anyStatus {
		ok = resp.StatusCode == http.StatusOK || resp.StatusCode == map[string]int{"send": 409, "drain": 502}[st.op]
	}
	want := st.body
	for _, n := range c.names {
		if want = strings.ReplaceAll(want, "{"+n+"}", c.url[n]); strings.Contains(want, "{@"+n+"}") {
			want = strings.ReplaceAll(want, "{@"+n+"}", c.vehicle("@"+n))
		}
	}
	var got unavailableResponse
	json.Unmarshal(body, &got) //nolint:errcheck // compared below when state is set
	w := unavailableResponse{Error: got.Error, Vehicle: c.vehicle(veh[strings.LastIndex(veh, ",")+1:]), State: st.state,
		Refused: cmp.Or(st.refused, got.Refused), RetryAfter: 1, Peer: c.url[st.peer]}
	if !ok || !strings.Contains(string(body), want) ||
		st.state != "" && (got != w || resp.Header.Get("Retry-After") != "1") {
		c.t.Fatalf("step %d (%s %s on %s): %d %s (Retry-After %q)\nwant %d %s %+v", i, st.op, veh+st.path, st.on,
			resp.StatusCode, body, resp.Header.Get("Retry-After"), st.want, want, w)
	}
}

// send posts v's next chunk where the producer last learned v lives,
// following 409 peer hints; a refusal without one leaves v pending.
func (c *cluster) send(v string) (*http.Response, []byte) {
	for hops := 0; c.next[v] < len(c.fx.chunks[v]); hops++ {
		resp, body := postBody(c.t, cmp.Or(c.at[v], c.url[c.names[0]])+"/ingest", "application/octet-stream", c.fx.chunks[v][c.next[v]])
		var ua unavailableResponse
		switch {
		case resp.StatusCode == http.StatusOK:
			c.next[v]++
			delete(c.pending, v)
		case resp.StatusCode == http.StatusConflict && json.Unmarshal(body, &ua) == nil && ua.Peer != "" && hops < 4:
			c.at[v] = ua.Peer
			continue
		case resp.StatusCode == http.StatusConflict:
			c.pending[v] = true
		}
		return resp, body
	}
	delete(c.pending, v)
	return nil, nil
}

// heal lifts every fault, re-issues the failed drains, sends the backlog.
func (c *cluster) heal() {
	c.mu.Lock()
	clear(c.faults)
	c.mu.Unlock()
	for _, d := range c.failed {
		d.want = 0
		c.step(-1, d)
	}
	for round := 0; round < 8; round++ {
		for _, v := range c.fx.vehicles {
			for resp, _ := c.send(v); resp != nil && resp.StatusCode == http.StatusOK; {
				resp, _ = c.send(v)
			}
		}
		if len(c.pending) == 0 {
			return
		}
	}
	c.t.Fatalf("after healing, the backlog of %v is still refused", c.pending)
}

// live maps each vehicle live (resident and unfenced) on an instance to
// it, failing if one is live on two.
func (c *cluster) live(at string) map[string]string {
	where := map[string]string{}
	for _, name := range c.names {
		for _, id := range c.srv[name].eng.VehicleIDs() {
			if c.srv[name].eng.CordonState(id) != "" {
				continue
			}
			if where[id] != "" {
				c.t.Fatalf("%s: vehicle %s is live on %s and %s", at, id, where[id], name)
			}
			where[id] = name
		}
	}
	return where
}

// wholeFleet checks a scenario that sent the entire fleet: each vehicle
// live on exactly one instance, no alarm dropped, the merged journals
// Float64bits-equal to one instance replaying the stream, and the
// instances' pdm_ingest_records_total summing to the stream's records.
func (c *cluster) wholeFleet() {
	where, records, drops := c.live("at the end"), 0.0, uint64(0)
	var keys []string
	for _, name := range c.names {
		_, m := postGet(c.t, c.url[name]+"/metrics")
		_, tail, _ := strings.Cut(string(m), "\npdm_ingest_records_total ")
		n, _ := strconv.ParseFloat(strings.Fields(tail + " NaN")[0], 64)
		keys, records, drops = append(keys, journalKeys(c.srv[name])...), records+n, drops+c.srv[name].eng.Stats().Drops
	}
	if len(where) != len(c.fx.vehicles) || records != float64(c.fx.records) || drops != 0 {
		c.t.Fatalf("live vehicles %v, want each of %v; %v records admitted, want %d; %d alarms dropped",
			where, c.fx.vehicles, records, c.fx.records, drops)
	}
	if sort.Strings(keys); !slices.Equal(keys, c.fx.ref) {
		c.t.Fatalf("the merged journals' %d alarms differ from the reference's %d", len(keys), len(c.fx.ref))
	}
}

// vehicle resolves "@x" to the first veh-N the ring places on x.
func (c *cluster) vehicle(v string) string {
	for i := 0; strings.HasPrefix(v, "@") && i < 10_000; i++ {
		if id := "veh-" + strconv.Itoa(i); c.srv[v[1:]].ring.Owner(id) == v[1:] {
			return id
		}
	}
	return v
}

// decode GETs path on name into v (left as is, to fail the comparison).
func (c *cluster) decode(name, path string, v any) {
	_, body := postGet(c.t, c.url[name]+path)
	json.Unmarshal(body, v) //nolint:errcheck // see above
}

func (c *cluster) recordsIn(name string, want uint64) {
	if got := c.srv[name].eng.StatsConsistent().RecordsIn; got != want {
		c.t.Fatalf("%s admitted %d records, want %d", name, got, want)
	}
}

// namedServer builds a 2-shard server with a ring identity, the fleet
// tests' sensitive threshold factor (so the synthetic fleets raise
// alarms) and a journal that keeps every alarm for bit-identity checks.
func namedServer(t *testing.T, name string, peers map[string]string) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(serverConfig{shards: 2, factor: 4, journalCap: 1 << 14, name: name, peers: peers})
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

// journalKeys returns a server's journal sorted, one key per alarm
// carrying its exact float bits: equal keys are bit-identical alarms.
func journalKeys(s *server) []string {
	var keys []string
	for _, e := range s.journal.Last(1 << 14) {
		keys = append(keys, fmt.Sprintf("%s %d %s %x %x", e.VehicleID, e.Time.UnixNano(), e.Feature,
			math.Float64bits(e.Score), math.Float64bits(e.Threshold)))
	}
	sort.Strings(keys)
	return keys
}

// recordFrame encodes one NVWIRE1 frame holding a record per vehicle,
// stamped minute minutes after base.
func recordFrame(base time.Time, minute int, vehicles ...string) []byte {
	var enc wire.Encoder
	for _, v := range vehicles {
		enc.Record(&timeseries.Record{VehicleID: v, Time: base.Add(time.Duration(minute) * time.Minute)})
	}
	enc.End()
	return enc.Bytes()
}
