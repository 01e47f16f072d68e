package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// requests, so a POST reuses a warm read buffer, payload buffer,
	// batch and vehicle-ID intern table instead of rebuilding them. A
	// pool rather than per-connection state because a request is the
	// unit that needs one (a keep-alive connection has one in flight)
	// and tests drive the mux with no connection at all.
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
	// ingest stays local instead of being refused as misrouted (which
	// would leave a drained vehicle bounced between the origin's fence
	// and the adoptee's router forever); a peer base URL means drained
	// away to that peer, so a later 409 for the vehicle can point the
	// producer at the adoptee. Each handoff overwrites the vehicle's
	// entry — adopting a vehicle back drops its drain hint, draining an
	// adopted vehicle away drops its adoption — and a vehicle that is
	// merely cordoned never has one.
	overrideMu sync.Mutex
	override   map[string]string

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
// adopted here, or the peer it was drained to. An adoption the ring
// agrees with needs no entry.
func (s *server) setOverride(id, dest string) {
	s.overrideMu.Lock()
	if dest == "" && s.ring.Owner(id) == s.name {
		delete(s.override, id)
	} else {
		s.override[id] = dest
	}
	s.overrideMu.Unlock()
}

// overrideFor returns a vehicle's override entry. It is consulted only
// on a ring mismatch or a migrating refusal, so the lock is off the
// common ingest path.
func (s *server) overrideFor(id string) (dest string, ok bool) {
	s.overrideMu.Lock()
	dest, ok = s.override[id]
	s.overrideMu.Unlock()
	return dest, ok
}

// isAdopted reports whether id was handed to this instance despite a
// peer owning it on the ring.
func (s *server) isAdopted(id string) bool {
	dest, ok := s.overrideFor(id)
	return ok && dest == ""
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
	s.mux.HandleFunc("GET /admin/placement", s.handleAdminPlacement)
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
// refused vehicles — batch admission is all-or-nothing per vehicle, so
// the retry cannot duplicate records. The Peer hint is attached only
// for a vehicle this instance actually drained away (state
// "migrating" with a recorded destination); a plain cordon has no
// peer to point at.
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

// misroute records items refused because their ring owner is another
// instance.
type misroute struct {
	vehicle string
	owner   string
	refused int
}

// routed reports whether this instance shares the ring with peers.
func (s *server) routed() bool { return len(s.peers) > 0 }

// filterOwned drops items whose ring owner is a peer, in place,
// counting them into mis. Per-vehicle all-or-nothing holds trivially:
// ownership is a pure function of the vehicle ID, so either every one
// of a vehicle's items passes or none does.
func (s *server) filterOwned(b *wire.Batch, mis *misroute) {
	b.Records = slices.DeleteFunc(b.Records, func(r timeseries.Record) bool { return s.misrouted(r.VehicleID, mis) })
	b.Events = slices.DeleteFunc(b.Events, func(ev obd.Event) bool { return s.misrouted(ev.VehicleID, mis) })
}

// misrouted reports whether a peer owns vehicle id and has not handed
// it here, counting the item into mis if so.
func (s *server) misrouted(id string, mis *misroute) bool {
	owner := s.ring.Owner(id)
	if owner == s.name || s.isAdopted(id) {
		return false
	}
	mis.refused++
	if mis.vehicle == "" {
		mis.vehicle, mis.owner = id, owner
	}
	return true
}

// handleIngest admits telemetry. The decoder is chosen by Content-Type
// — NVWIRE1 binary by default, text/csv and application/json for
// interoperability — and every format delivers through the same
// FrameSink into Engine.IngestBatch. Producers must upload each
// vehicle's telemetry in chronological order (the engine's ordering
// contract); batches themselves may interleave vehicles freely.
//
// A binary body is a (possibly chunked) frame stream, each frame
// admitted as it completes, so a producer can trickle frames over a
// held-open connection. A peer's drain delivers vehicle-handoff frames
// the same way, adopted before the next telemetry frame decodes. The
// decoder comes from s.decoders and goes back on every exit path with
// its handoff sink cleared, so a parked decoder references neither this
// request's response nor — DecodeStream drops the reader and any
// oversized frame buffer when it returns — its body.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	switch ct {
	case "text/csv":
		s.decodeAndAdmit(w, r, func(body io.Reader, sink wire.FrameSink, _ *ingestResponse) error {
			_, err := wire.DecodeCSV(body, 0, sink)
			return err
		})
	case "application/json":
		s.decodeAndAdmit(w, r, func(body io.Reader, sink wire.FrameSink, _ *ingestResponse) error {
			_, err := wire.DecodeJSON(body, 0, sink)
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
				s.setOverride(vs.ID, "")
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
// records become visible to /fleet and /alarms promptly.
//
// Engine-level refusals map to typed statuses rather than silent drops:
// a cordoned or mid-handoff vehicle is 409 Conflict with a Retry-After
// hint (retry the refused vehicles verbatim — admission is all-or-
// nothing per vehicle), a closed engine is 503, and everything the
// decoder itself rejects stays 400.
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
		bc := &obs.BatchCtx{
			BatchID: s.batchSeq.Add(1),
			TraceID: b.TraceID,
			Arrival: arrival,
		}
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
// optionally ?vehicle=ID for a single vehicle; default all residents).
// The handoff is transactional per vehicle: each vehicle is extracted
// at a batch boundary and shipped as its own single-frame POST to the
// peer's /ingest (ship), so one request never carries more
// than one vehicle's state and the peer's -max-body bounds a frame,
// not the whole fleet. Only a peer-confirmed adoption counts as moved
// — an unconfirmed vehicle is re-adopted locally before the drain
// aborts, so at every instant each vehicle is live on exactly one
// instance. Vehicles confirmed before a mid-drain failure stay moved
// (the response says how many); re-issuing the drain resumes with the
// rest. Moved vehicles stay fenced here ("migrating") and later
// ingest for them 409s with the recorded peer hint.
func (s *server) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	to := strings.TrimRight(r.URL.Query().Get("to"), "/")
	if to == "" {
		http.Error(w, "missing ?to=", http.StatusBadRequest)
		return
	}
	var ids []string
	if v := r.URL.Query().Get("vehicle"); v != "" {
		ids = []string{v}
	} else {
		ids = s.eng.VehicleIDs()
	}

	var names []string
	fail := func(status int, err error) {
		http.Error(w, fmt.Sprintf("drain failed after %d vehicles moved: %v", len(names), err), status)
	}
	for _, id := range ids {
		start := time.Now()
		vs, err := s.eng.ExtractVehicle(id)
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
		if status, err := s.ship(to, vs); err != nil {
			s.events.Record(obs.ControlEvent{Kind: obs.EventDrainAbort, Engine: s.name,
				Peer: to, VehicleID: id, Detail: err.Error()})
			fail(status, err)
			return
		}
		s.ctrl.ObserveHandoff(time.Since(start))
		s.setOverride(id, to)
		s.events.Record(obs.ControlEvent{Kind: obs.EventDrainFinish, Engine: s.name,
			Peer: to, VehicleID: id, DurationS: time.Since(start).Seconds()})
		names = append(names, id)
	}
	sort.Strings(names)
	writeJSON(w, drainResponse{Moved: len(names), Vehicles: names, To: to})
}

// ship delivers one extracted vehicle to the peer as a single
// KindHandoff frame and returns nil only when the peer confirmed the
// adoption (2xx with handoffs == 1 in its ingestResponse). Every
// unconfirmed outcome re-adopts the state locally before returning,
// with two exceptions that would otherwise leave the vehicle live on
// both instances at once:
//
//   - the peer answered 409 — it already serves a live handler for
//     the vehicle, so the peer's copy wins and the local state stays
//     fenced (re-adopting here would be the split-brain the handoff
//     design exists to prevent); the 409 hint is pointed at the peer;
//   - the POST failed in transport, so the confirmation may have been
//     lost rather than the delivery: the peer's placement is
//     consulted, and if the vehicle is resident there the handoff is
//     treated as confirmed.
func (s *server) ship(to string, vs fleet.VehicleState) (int, error) {
	frame, err := wire.AppendHandoff(nil, vs.Encode())
	if err != nil {
		return http.StatusInternalServerError, s.readopt(vs, err)
	}
	resp, err := s.client.Post(to+"/ingest", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		if s.residentOn(to, vs.ID) {
			return 0, nil
		}
		return http.StatusBadGateway, s.readopt(vs, err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close() //nolint:errcheck // read to completion above
	if resp.StatusCode == http.StatusConflict {
		s.setOverride(vs.ID, to)
		s.events.Record(obs.ControlEvent{Kind: obs.EventPeerConflict, Engine: s.name,
			Peer: to, VehicleID: vs.ID, Detail: string(bytes.TrimSpace(body))})
		return http.StatusConflict, fmt.Errorf(
			"peer already serves vehicle %s (%s); local state kept fenced, peer copy wins",
			vs.ID, bytes.TrimSpace(body))
	}
	var ir ingestResponse
	if resp.StatusCode/100 == 2 && json.Unmarshal(body, &ir) == nil && ir.Handoffs == 1 {
		return 0, nil
	}
	return http.StatusBadGateway, s.readopt(vs, fmt.Errorf(
		"peer did not adopt vehicle %s: %s: %s", vs.ID, resp.Status, bytes.TrimSpace(body)))
}

// readopt returns an extracted vehicle to local service after a ship
// the peer did not confirm, so a failed drain strands nothing.
func (s *server) readopt(vs fleet.VehicleState, cause error) error {
	if err := s.eng.AdoptVehicle(vs); err != nil {
		// Should be unreachable (we hold the only copy of the extracted
		// state), but losing a vehicle must be loud.
		return fmt.Errorf("%v; re-adopt of vehicle %s failed, state lost: %v", cause, vs.ID, err)
	}
	return cause
}

// residentOn reports whether the peer's placement lists id as
// resident — the tiebreaker for a handoff POST whose response was
// lost in transport.
func (s *server) residentOn(peer, id string) bool {
	resp, err := s.client.Get(peer + "/admin/placement")
	if err != nil {
		return false
	}
	defer resp.Body.Close() //nolint:errcheck // body fully decoded
	var pl struct {
		Residents []string `json:"residents"`
	}
	return resp.StatusCode == http.StatusOK &&
		json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&pl) == nil &&
		slices.Contains(pl.Residents, id)
}

// placementMember is one ring member in the placement listing.
type placementMember struct {
	Name string `json:"name"`
	URL  string `json:"url,omitempty"` // empty for this instance
}

// placementResponse is this instance's control-plane view: the ring
// membership, the vehicles resident in the local engine, the override
// table read both ways (adopted here, migrated to a peer), and a link
// to the event log that audits how it got that way. Served by
// /admin/placement and, with peers, in /fleet's "placement" field.
type placementResponse struct {
	Self      string            `json:"self"`
	Members   []placementMember `json:"members"`
	Residents []string          `json:"residents"`
	Adopted   []string          `json:"adopted,omitempty"`
	Migrated  map[string]string `json:"migrated,omitempty"`
	// EventsTotal counts control-plane events ever recorded; EventsURL
	// is where the retained entries are served.
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

// handleAdminPlacement reports this instance's view of the ring and the
// vehicles currently resident in its engine.
func (s *server) handleAdminPlacement(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.placementView())
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
