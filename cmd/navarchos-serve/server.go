package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/navarchos/pdm"
	"github.com/navarchos/pdm/internal/controlplane"
	"github.com/navarchos/pdm/internal/fleet"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/wire"
)

// serverConfig assembles the ingest front end.
type serverConfig struct {
	shards     int
	factor     float64
	journalCap int
	maxBody    int64
	resume     io.Reader // restore engine state from a checkpoint
	alarmLog   io.Writer // one line per raw alarm (nil = discard)
	jsonlSink  io.Writer // journal JSONL sink (nil = none)
	eventsSink io.Writer // control-plane event log JSONL sink (nil = none)

	// name identifies this instance on the placement ring ("self" when
	// empty); peers maps the other instances' names to their base URLs.
	// With no peers the ring is a single node and /ingest admits every
	// vehicle — the single-instance deployment is unchanged.
	name  string
	peers map[string]string
}

// server owns the engine, the observability stack, and the HTTP mux.
// Ingest requests decode on the request goroutine and admit through
// Engine.IngestBatch, so engine backpressure propagates naturally to
// slow down exactly the producers that overrun a shard.
type server struct {
	eng     *pdm.FleetEngine
	reg     *pdm.MetricsRegistry
	journal *pdm.AlarmJournal
	ingest  *obs.IngestMetrics
	ctrl    *obs.CtrlMetrics
	events  *obs.EventLog
	mux     *http.ServeMux
	maxBody int64
	drained chan struct{}

	// batchSeq numbers ingest batches for alarm provenance: every
	// admitted frame gets a process-monotone batch ID.
	batchSeq atomic.Uint64

	// decoders holds the NVWIRE1 decoders between binary ingest
	// requests, so a POST reuses warm buffers, batch and vehicle-ID
	// intern table. A pool, not per-connection state: a request is the
	// unit that needs one, and tests drive the mux with no connection.
	decoders sync.Pool

	// Placement: this instance's name, its peers, and the consistent
	// ring over all of them. The ring is static per process — placement
	// changes travel as drains, not ring edits.
	name   string
	peers  map[string]string
	ring   *controlplane.Ring
	client *http.Client

	// override is the one table of vehicles whose placement a handoff
	// has pinned against the ring's default, one entry per vehicle: ""
	// means adopted here although the ring places it on a peer, so its
	// ingest stays local instead of bouncing between the origin's fence
	// and the adoptee's router; a peer base URL means drained away to
	// that peer, the hint a later 409 for the vehicle carries. held keeps
	// the state of a vehicle whose handoff to its override's peer has an
	// unknown outcome (see unconfirmed). Each handoff overwrites both; a
	// vehicle that is merely cordoned has neither.
	overrideMu sync.Mutex
	override   map[string]string
	held       map[string]fleet.VehicleState

	// conns counts HTTP connections from accept to close, for stop.
	conns sync.WaitGroup
}

// trackConn is the http.Server ConnState hook that stop waits on.
func (s *server) trackConn(_ net.Conn, state http.ConnState) {
	switch state {
	case http.StateNew:
		s.conns.Add(1)
	case http.StateClosed, http.StateHijacked:
		s.conns.Done()
	}
}

// stop shuts srv (ConnState: trackConn) down, cuts any request still
// running when ctx expires (a held-open chunked /ingest, say), then waits
// until every accepted connection, its handler included, has ended. The
// live engine's next checkpoint thus holds everything the server admitted.
func (s *server) stop(ctx context.Context, srv *http.Server) error {
	err := srv.Shutdown(ctx)
	if err != nil {
		srv.Close() //nolint:errcheck // Shutdown's error is the one reported
	}
	s.conns.Wait()
	return err
}

// setOverride records where a handoff left a vehicle: dest is "" for
// adopted here, or the peer it was drained (or, with hold set, is being
// drained) to. An adoption the ring agrees with needs no entry.
func (s *server) setOverride(id, dest string, hold *fleet.VehicleState) {
	s.overrideMu.Lock()
	delete(s.held, id)
	if hold != nil {
		s.held[id] = *hold
	}
	if dest == "" && s.ring.Owner(id) == s.name {
		delete(s.override, id)
	} else {
		s.override[id] = dest
	}
	s.overrideMu.Unlock()
}

// overrideFor returns a vehicle's override entry, "" for a held one:
// its ingest meets the fence here, with no peer hint. It is consulted
// only on a ring mismatch or a migrating refusal, so the lock is off
// the common ingest path.
func (s *server) overrideFor(id string) (dest string, ok bool) {
	s.overrideMu.Lock()
	dest, ok = s.override[id]
	if _, held := s.held[id]; held {
		dest = ""
	}
	s.overrideMu.Unlock()
	return dest, ok
}

// newServer builds the engine with the paper's complete solution per
// vehicle (correlation transform, closest-pair detection, self-tuning
// thresholds) and wires the HTTP routes over obs.NewDebugMux.
func newServer(cfg serverConfig) (*server, error) {
	if cfg.maxBody <= 0 {
		cfg.maxBody = 64 << 20
	}
	reg := pdm.NewMetricsRegistry()
	journal := pdm.NewAlarmJournal(cfg.journalCap)
	if cfg.jsonlSink != nil {
		journal.SetSink(cfg.jsonlSink)
	}
	observer := pdm.NewObserver(reg, pdm.ObserverConfig{Journal: journal})

	engCfg := pdm.FleetEngineConfig{
		NewConfig: func(string) (pdm.PipelineConfig, error) {
			pc, err := pdm.DefaultPipelineConfig()
			if err != nil {
				return pdm.PipelineConfig{}, err
			}
			pc.Thresholder = pdm.NewSelfTuningThreshold(cfg.factor)
			pc.Observer = observer
			return pc, nil
		},
		Shards:   cfg.shards,
		Observer: observer,
	}
	var eng *pdm.FleetEngine
	var err error
	if cfg.resume != nil {
		eng, err = pdm.NewFleetEngineFromCheckpoint(cfg.resume, engCfg)
	} else {
		eng, err = pdm.NewFleetEngine(engCfg)
	}
	if err != nil {
		return nil, err
	}

	name := cfg.name
	if name == "" {
		name = "self"
	}
	ring := controlplane.NewRing(0)
	ring.Add(name)
	for peer := range cfg.peers {
		ring.Add(peer)
	}
	events := obs.NewEventLog(cfg.journalCap, reg)
	if cfg.eventsSink != nil {
		events.SetSink(cfg.eventsSink)
	}
	s := &server{
		eng:      eng,
		reg:      reg,
		journal:  journal,
		ingest:   obs.NewIngestMetrics(reg),
		ctrl:     obs.NewCtrlMetrics(reg),
		events:   events,
		maxBody:  cfg.maxBody,
		drained:  make(chan struct{}),
		name:     name,
		peers:    cfg.peers,
		ring:     ring,
		client:   &http.Client{Timeout: 30 * time.Second},
		override: make(map[string]string),
		held:     make(map[string]fleet.VehicleState),
		decoders: sync.Pool{New: func() any { return &wire.Decoder{MaxFrameBytes: int(cfg.maxBody)} }},
	}
	// The journal captures every alarm with full context via the
	// observer; the channel drain below is the live tail for operators.
	go func() {
		defer close(s.drained)
		for a := range eng.Alarms() {
			if cfg.alarmLog != nil {
				fmt.Fprintf(cfg.alarmLog, "%s  %-8s %-32s score=%.4f threshold=%.4f\n",
					a.Time.Format("2006-01-02 15:04"), a.VehicleID, a.Feature, a.Score, a.Threshold)
			}
		}
	}()

	debugCfg := pdm.DebugConfig{
		Registry:    reg,
		Journal:     journal,
		FleetStatus: func() any { return eng.Stats() },
	}
	if s.routed() {
		// One endpoint, both planes: /fleet pairs the engine stats with
		// the control-plane placement view when this instance has peers.
		debugCfg.Placement = func() any { return s.placementView() }
	}
	s.mux = pdm.NewDebugMux(debugCfg)
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("GET /alarms", s.handleAlarms)
	s.mux.HandleFunc("GET /vehicles/{id}", s.handleVehicle)
	s.mux.HandleFunc("POST /admin/cordon", s.handleAdminCordon)
	s.mux.HandleFunc("POST /admin/drain", s.handleAdminDrain)
	s.mux.HandleFunc("GET /admin/placement", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, s.placementView()) })
	s.mux.HandleFunc("GET /admin/events", s.handleAdminEvents)
	return s, nil
}

// close flushes and stops the engine and waits for the alarm drain.
func (s *server) close() error {
	err := s.eng.Close()
	<-s.drained
	return err
}

// countingReader tallies bytes handed to a decoder.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ingestResponse is the POST /ingest response body.
type ingestResponse struct {
	Frames  int `json:"frames"`
	Records int `json:"records"`
	Events  int `json:"events"`
	// Handoffs counts adopted vehicle-handoff frames (binary only).
	Handoffs int `json:"handoffs,omitempty"`
}

// unavailableResponse is the typed 409 body for a vehicle the instance
// cannot serve right now (cordoned, mid-handoff, or owned elsewhere).
// RetryAfter (always 1) mirrors the Retry-After header; Peer, when set,
// is where the vehicle went (the last drain target or the ring owner).
type unavailableResponse struct {
	Error      string `json:"error"`
	Vehicle    string `json:"vehicle"`
	State      string `json:"state"`
	Refused    int    `json:"refused"`
	RetryAfter int    `json:"retry_after_seconds"`
	Peer       string `json:"peer,omitempty"`
}

// writeUnavailable sends the typed 409: the producer should wait
// RetryAfter (or re-resolve placement to Peer) and resend exactly the
// refused vehicles, which admission refused all-or-nothing. A
// "migrating" vehicle gets its recorded drain target as Peer.
func (s *server) writeUnavailable(w http.ResponseWriter, resp unavailableResponse) {
	resp.RetryAfter = 1
	if resp.Peer == "" && resp.State == fleet.StateMigrating {
		resp.Peer, _ = s.overrideFor(resp.Vehicle)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfter))
	w.WriteHeader(http.StatusConflict)
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // client went away
}

// misroute records items refused because a peer owns them on the ring.
type misroute struct {
	vehicle string
	owner   string
	refused int
}

// routed reports whether this instance shares the ring with peers.
func (s *server) routed() bool { return len(s.peers) > 0 }

// filterOwned drops items whose ring owner is a peer, in place,
// counting them into mis. Ownership is a function of the vehicle ID, so
// either every one of a vehicle's items passes or none does.
func (s *server) filterOwned(b *wire.Batch, mis *misroute) {
	b.Records = slices.DeleteFunc(b.Records, func(r timeseries.Record) bool { return s.misrouted(r.VehicleID, mis) })
	b.Events = slices.DeleteFunc(b.Events, func(ev obd.Event) bool { return s.misrouted(ev.VehicleID, mis) })
}

// misrouted reports whether a peer owns vehicle id and no override
// entry places it elsewhere, counting the item into mis if so. One
// drained to a non-owner meets its migrating fence, hinting that peer.
func (s *server) misrouted(id string, mis *misroute) bool {
	owner := s.ring.Owner(id)
	if owner == s.name {
		return false
	}
	if dest, ok := s.overrideFor(id); ok && dest != s.peers[owner] {
		return false
	}
	mis.refused++
	if mis.vehicle == "" {
		mis.vehicle, mis.owner = id, owner
	}
	return true
}

// handleIngest admits telemetry, decoded by Content-Type (NVWIRE1 by
// default, text/csv, application/json) into one FrameSink. Each
// vehicle's records must arrive in time order, and a re-sent frame
// changes nothing; batches may interleave vehicles. A binary body is a (possibly chunked) frame
// stream admitted frame by frame, with a peer's vehicle-handoff frames
// adopted in line. The pooled decoder goes back with its handoff sink
// cleared, so it references neither this response nor (DecodeStream
// drops the reader and any oversized buffer) the body.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	switch ct {
	case "text/csv", "application/json":
		s.decodeAndAdmit(w, r, func(body io.Reader, sink wire.FrameSink, _ *ingestResponse) error {
			decode := wire.DecodeJSON
			if ct == "text/csv" {
				decode = wire.DecodeCSV
			}
			_, err := decode(body, 0, sink)
			return err
		})
	default: // NVWIRE1 binary
		s.decodeAndAdmit(w, r, func(body io.Reader, sink wire.FrameSink, resp *ingestResponse) error {
			dec := s.decoders.Get().(*wire.Decoder)
			defer func() {
				dec.HandoffSink = nil
				s.decoders.Put(dec)
			}()
			dec.HandoffSink = func(state []byte) error {
				// The payload aliases the decode buffer; the snapshot must
				// outlive this call, so clone before decoding.
				vs, err := fleet.DecodeVehicleState(bytes.Clone(state))
				if err != nil {
					return err
				}
				if err := s.eng.AdoptVehicle(vs); err != nil {
					return err
				}
				// A vehicle handed back after an earlier drain away lives
				// here again: its old drain hint is overwritten.
				s.setOverride(vs.ID, "", nil)
				s.events.Record(obs.ControlEvent{Kind: obs.EventAdopt, Engine: s.name, VehicleID: vs.ID})
				resp.Handoffs++
				return nil
			}
			_, err := dec.DecodeStream(body, sink)
			return err
		})
	}
}

// decodeAndAdmit runs one decoder over the request body, counting
// outcomes into the ingest metrics and flushing the engine so admitted
// records reach /fleet and /alarms promptly. Refusals are typed, never
// silent drops: a cordoned or mid-handoff vehicle is the 409 with
// Retry-After, a closed engine 503, and what the decoder rejects 400.
func (s *server) decodeAndAdmit(w http.ResponseWriter, r *http.Request,
	decode func(io.Reader, wire.FrameSink, *ingestResponse) error) {
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.maxBody)}
	var resp ingestResponse
	var engineErr error
	var mis misroute
	start := time.Now()
	sink := wire.SinkFunc(func(b *wire.Batch) error {
		if s.routed() {
			s.filterOwned(b, &mis)
		}
		// One provenance context per frame: request receipt stands in
		// for the first frame's wire arrival; on a long-lived stream,
		// later frames are stamped as they complete decoding.
		arrival := start
		if resp.Frames > 0 {
			arrival = time.Now()
		}
		bc := &obs.BatchCtx{BatchID: s.batchSeq.Add(1), TraceID: b.TraceID, Arrival: arrival}
		if err := s.eng.IngestBatchCtx(b.Records, b.Events, bc); err != nil {
			engineErr = err
			return err
		}
		resp.Frames++
		resp.Records += len(b.Records)
		resp.Events += len(b.Events)
		return nil
	})
	err := decode(body, sink, &resp)
	s.ingest.ObserveDecode(time.Since(start), body.n, resp.Frames, resp.Records, resp.Events)
	if err != nil {
		var vu *fleet.VehicleUnavailableError
		switch {
		case errors.As(err, &vu):
			// Frames admitted before the refusal stay admitted — flush
			// them so the producer's retry resumes, not restarts.
			s.eng.Flush()
			s.writeUnavailable(w, unavailableResponse{
				Error:   "vehicle unavailable",
				Vehicle: vu.VehicleID,
				State:   vu.State,
				Refused: vu.Refused,
			})
		case errors.Is(err, fleet.ErrVehicleExists):
			// A handoff for a vehicle this engine already serves: the
			// sender must not retry blindly, the state diverged.
			http.Error(w, err.Error(), http.StatusConflict)
		case engineErr != nil || errors.Is(err, fleet.ErrClosed):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			// Decode-level rejection: corrupt, truncated, schema-invalid
			// telemetry, or a handoff payload that is not a valid
			// vehicle state.
			s.ingest.Reject()
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	s.eng.Flush()
	if mis.refused > 0 {
		// Misrouted items were filtered (never admitted); everything
		// owned here went through. Point the producer at the owner.
		s.writeUnavailable(w, unavailableResponse{
			Error:   "vehicle placed on peer " + mis.owner,
			Vehicle: mis.vehicle,
			State:   "misrouted",
			Refused: mis.refused,
			Peer:    s.peers[mis.owner],
		})
		return
	}
	writeJSON(w, resp)
}

// journalN parses the ?n= query (default def).
func journalN(r *http.Request, def int) int {
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// handleAlarms returns the most recent journal entries, oldest first.
func (s *server) handleAlarms(w http.ResponseWriter, r *http.Request) {
	alarms := s.journal.Last(journalN(r, 32))
	if alarms == nil {
		alarms = []pdm.AlarmJournalEntry{}
	}
	writeJSON(w, struct {
		Total  uint64                  `json:"total"`
		Alarms []pdm.AlarmJournalEntry `json:"alarms"`
	}{s.journal.Total(), alarms})
}

// handleVehicle returns one vehicle's retained alarm history.
func (s *server) handleVehicle(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	alarms := s.journal.LastFor(id, journalN(r, 32))
	if alarms == nil {
		alarms = []pdm.AlarmJournalEntry{}
	}
	writeJSON(w, struct {
		Vehicle string                  `json:"vehicle"`
		Alarms  []pdm.AlarmJournalEntry `json:"alarms"`
	}{id, alarms})
}

// writeJSON writes v as the 200 response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

// handleAdminCordon fences one vehicle (POST /admin/cordon?vehicle=X):
// further ingest for it gets the typed 409 until the fence lifts.
// ?off=1 lifts the fence instead.
func (s *server) handleAdminCordon(w http.ResponseWriter, r *http.Request) {
	vehicle := r.URL.Query().Get("vehicle")
	if vehicle == "" {
		http.Error(w, "missing ?vehicle=", http.StatusBadRequest)
		return
	}
	if r.URL.Query().Get("off") != "" {
		s.eng.Uncordon(vehicle)
		s.events.Record(obs.ControlEvent{Kind: obs.EventUncordon, Engine: s.name, VehicleID: vehicle})
	} else {
		s.eng.Cordon(vehicle)
		s.events.Record(obs.ControlEvent{Kind: obs.EventCordon, Engine: s.name, VehicleID: vehicle})
	}
	state := s.eng.CordonState(vehicle)
	if state == "" {
		state = "serving"
	}
	writeJSON(w, struct {
		Vehicle string `json:"vehicle"`
		State   string `json:"state"`
	}{vehicle, state})
}

// drainResponse is the POST /admin/drain response body.
type drainResponse struct {
	Moved    int      `json:"moved"`
	Vehicles []string `json:"vehicles"`
	To       string   `json:"to"`
}

// handleAdminDrain moves vehicles to a peer (POST /admin/drain?to=URL,
// optionally ?vehicle=ID; default all residents and those held for that
// peer), each extracted at a batch boundary and shipped as its own
// single-frame POST to the peer's /ingest, so -max-body bounds a frame.
// Only a peer-confirmed adoption counts as moved; the drain aborts at
// the first unconfirmed vehicle, so no vehicle is live on two
// instances, and re-issuing it resumes with the rest. Moved vehicles
// stay fenced here ("migrating"), their 409s carrying the peer.
func (s *server) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	to := strings.TrimRight(r.URL.Query().Get("to"), "/")
	if !strings.HasPrefix(to, "http://") && !strings.HasPrefix(to, "https://") {
		http.Error(w, "?to= must be a peer's http(s) base URL", http.StatusBadRequest)
		return
	}
	s.overrideMu.Lock()
	held := maps.Clone(s.held)
	maps.DeleteFunc(held, func(id string, _ fleet.VehicleState) bool { return s.override[id] != to })
	s.overrideMu.Unlock()
	ids := []string{r.URL.Query().Get("vehicle")}
	if ids[0] == "" {
		ids = s.eng.VehicleIDs()
		for id := range held {
			ids = append(ids, id)
		}
		sort.Strings(ids)
	}

	var names []string
	fail := func(status int, err error) {
		http.Error(w, fmt.Sprintf("drain failed after %d vehicles moved: %v", len(names), err), status)
	}
	for _, id := range ids {
		start := time.Now()
		vs, resend := held[id]
		var err error
		if !resend {
			vs, err = s.eng.ExtractVehicle(id)
		}
		if errors.Is(err, fleet.ErrUnknownVehicle) {
			// Placed here but never materialised — nothing to move, and
			// an operator fence set via /admin/cordon stays put (the
			// engine restores it on the failed extraction).
			continue
		}
		if err != nil {
			fail(http.StatusInternalServerError, err)
			return
		}
		s.events.Record(obs.ControlEvent{Kind: obs.EventDrainStart, Engine: s.name,
			Peer: to, VehicleID: id})
		if status, err := s.ship(to, vs, resend); err != nil {
			s.events.Record(obs.ControlEvent{Kind: obs.EventDrainAbort, Engine: s.name,
				Peer: to, VehicleID: id, Detail: err.Error()})
			fail(status, err)
			return
		}
		s.ctrl.ObserveHandoff(time.Since(start))
		s.setOverride(id, to, nil)
		s.events.Record(obs.ControlEvent{Kind: obs.EventDrainFinish, Engine: s.name,
			Peer: to, VehicleID: id, DurationS: time.Since(start).Seconds()})
		names = append(names, id)
	}
	sort.Strings(names)
	writeJSON(w, drainResponse{Moved: len(names), Vehicles: names, To: to})
}

// ship delivers one extracted vehicle to the peer as a KindHandoff
// frame, re-sent up to twice after a transport failure, and returns nil
// only when the peer confirmed the adoption: a 2xx with handoffs == 1,
// or a 409 once an earlier POST of the frame (resend: one that failed
// past its dial, or a held vehicle's, after landed) may have landed. A
// 409 to a first delivery means the peer already served the vehicle:
// its copy wins, the local state stays fenced. Else: unconfirmed.
func (s *server) ship(to string, vs fleet.VehicleState, resend bool) (int, error) {
	if resend {
		moved, err := s.landed(to, vs.ID)
		if err != nil {
			return http.StatusBadGateway, s.unconfirmed(to, vs, resend, err)
		}
		if moved {
			return 0, nil
		}
	}
	frame, err := wire.AppendHandoff(nil, vs.Encode())
	if err != nil {
		return http.StatusInternalServerError, s.unconfirmed(to, vs, resend, err)
	}
	var resp *http.Response
	for try := 0; ; try++ {
		if resp, err = s.client.Post(to+"/ingest", "application/octet-stream", bytes.NewReader(frame)); err == nil {
			break
		}
		var dial *net.OpError
		resend = resend || !errors.As(err, &dial) || dial.Op != "dial"
		if try == 2 {
			return http.StatusBadGateway, s.unconfirmed(to, vs, resend, err)
		}
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close() //nolint:errcheck // read to completion above
	var ir ingestResponse
	switch {
	case resp.StatusCode == http.StatusConflict && resend:
		return 0, nil
	case resp.StatusCode == http.StatusConflict:
		s.setOverride(vs.ID, to, nil)
		s.events.Record(obs.ControlEvent{Kind: obs.EventPeerConflict, Engine: s.name,
			Peer: to, VehicleID: vs.ID, Detail: string(bytes.TrimSpace(body))})
		return http.StatusConflict, fmt.Errorf(
			"peer already serves vehicle %s (%s); local state kept fenced, peer copy wins",
			vs.ID, bytes.TrimSpace(body))
	case resp.StatusCode/100 == 2 && json.Unmarshal(body, &ir) == nil && ir.Handoffs == 1:
		return 0, nil
	}
	return http.StatusBadGateway, s.unconfirmed(to, vs, resend, fmt.Errorf(
		"peer did not adopt vehicle %s: %s: %s", vs.ID, resp.Status, bytes.TrimSpace(body)))
}

// unconfirmed re-adopts an extracted vehicle the peer did not confirm,
// so a failed drain strands nothing, unless a delivery may have landed:
// then it is held, fenced with no peer hint until a drain re-sends it.
func (s *server) unconfirmed(to string, vs fleet.VehicleState, resend bool, cause error) error {
	if resend {
		s.setOverride(vs.ID, to, &vs)
		return fmt.Errorf("%v; vehicle %s held fenced until the drain is re-issued", cause, vs.ID)
	}
	if err := s.eng.AdoptVehicle(vs); err != nil {
		// Should be unreachable (we hold the only copy of the extracted
		// state), but losing a vehicle must be loud.
		return fmt.Errorf("%v; re-adopt of vehicle %s failed, state lost: %v", cause, vs.ID, err)
	}
	return cause
}

// landed reports whether a held vehicle's delivery to peer to landed (a
// re-send could then revive a stale copy), following placement views'
// migrated entries from to: back here (by -name) or an end at to means
// no; the vehicle resident, or an end past to, means yes.
func (s *server) landed(to, id string) (bool, error) {
	for url, hops := to, 0; hops < 16; hops++ {
		var pl placementResponse
		resp, err := s.client.Get(url + "/admin/placement")
		if err == nil {
			err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&pl)
			resp.Body.Close() //nolint:errcheck // decoded above
		}
		switch {
		case err != nil:
			return false, err
		case slices.Contains(pl.Residents, id):
			return true, nil
		case pl.Self == s.name || pl.Migrated[id] == "":
			return pl.Self != s.name && url != to, nil
		}
		url = pl.Migrated[id]
	}
	return false, fmt.Errorf("placement walk for vehicle %s did not end", id)
}

// placementMember is one ring member in the placement listing.
type placementMember struct {
	Name string `json:"name"`
	URL  string `json:"url,omitempty"` // empty for this instance
}

// placementResponse is this instance's control-plane view: the ring
// membership, the engine's residents, the override table read both ways
// (adopted here; migrated to, or held for, a peer) and a link to the
// event log. Served by /admin/placement and, with peers, in /fleet.
type placementResponse struct {
	Self      string            `json:"self"`
	Members   []placementMember `json:"members"`
	Residents []string          `json:"residents"`
	Adopted   []string          `json:"adopted,omitempty"`
	Migrated  map[string]string `json:"migrated,omitempty"`
	// EventsTotal counts events ever recorded; EventsURL serves them.
	EventsTotal uint64 `json:"events_total"`
	EventsURL   string `json:"events_url"`
}

// placementView snapshots the control-plane state.
func (s *server) placementView() placementResponse {
	members := []placementMember{{Name: s.name}}
	for name, url := range s.peers {
		members = append(members, placementMember{Name: name, URL: url})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
	var adopted []string
	migrated := map[string]string{}
	s.overrideMu.Lock()
	for id, dest := range s.override {
		if dest == "" {
			adopted = append(adopted, id)
		} else {
			migrated[id] = dest
		}
	}
	s.overrideMu.Unlock()
	sort.Strings(adopted)
	return placementResponse{
		Self:        s.name,
		Members:     members,
		Residents:   s.eng.VehicleIDs(),
		Adopted:     adopted,
		Migrated:    migrated,
		EventsTotal: s.events.Total(),
		EventsURL:   "/admin/events",
	}
}

// handleAdminEvents returns the most recent control-plane events,
// oldest first (?n= bounds the count, ?vehicle= filters to one
// vehicle's audit trail).
func (s *server) handleAdminEvents(w http.ResponseWriter, r *http.Request) {
	n := journalN(r, 64)
	var events []obs.ControlEvent
	if v := r.URL.Query().Get("vehicle"); v != "" {
		events = s.events.LastFor(v, n)
	} else {
		events = s.events.Last(n)
	}
	if events == nil {
		events = []obs.ControlEvent{}
	}
	writeJSON(w, struct {
		Total  uint64             `json:"total"`
		Events []obs.ControlEvent `json:"events"`
	}{s.events.Total(), events})
}
