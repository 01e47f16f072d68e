// Command navarchos-serve is the long-running fleet ingest front end:
// the sharded detection engine behind an HTTP data plane. Producers
// POST telemetry batches — NVWIRE1 binary frames, CSV, or JSON — to
// /ingest (or stream frames over a held-open connection to
// /ingest/stream); the server decodes without per-record allocation,
// admits whole batches through the engine's IngestBatch seam, and
// exposes detection state over the observability endpoints.
//
// "Without per-record allocation" holds because decode state outlives
// the request: binary ingest draws a wire.Decoder — read buffer,
// payload buffer, batch and vehicle-ID intern table — from a pool on
// the server and parks it again when the request ends, so a warm
// server allocates per POST (body wrappers, one provenance context per
// frame, the JSON reply), never per record. A decoder declared inside
// the handler would rebuild all of that, and re-intern every vehicle
// ID, on every POST.
//
// Routes:
//
//	POST /ingest          one batch (Content-Type selects the decoder:
//	                      NVWIRE1 binary by default, text/csv,
//	                      application/json)
//	POST /ingest/stream   NVWIRE1 frame stream, chunked-friendly; also
//	                      accepts KindHandoff frames (vehicle adoption)
//	GET  /alarms          recent alarm-journal entries (?n=), each with
//	                      ingest provenance (batch/trace id, arrival
//	                      time, queue wait, e2e latency)
//	GET  /vehicles/{id}   one vehicle's retained alarm history (?n=)
//	GET  /fleet           engine stats + journal tail (+ placement view
//	                      when -peers is set)
//	GET  /metrics         Prometheus exposition (incl. pdm_ingest_*,
//	                      pdm_ctrl_*, pdm_e2e_*)
//	POST /admin/cordon    fence a vehicle (?vehicle=, ?off=1 to lift)
//	POST /admin/drain     move vehicles to a peer (?to=URL [?vehicle=])
//	GET  /admin/placement ring members + resident vehicles
//	GET  /admin/events    control-plane event log: drains, cordons,
//	                      adoptions, peer conflicts (?n=, ?vehicle=)
//	     /debug/vars, /debug/pprof/*
//
// Producers must upload each vehicle's telemetry in chronological
// order; under that contract the alarms are bit-identical to an
// offline Replay of the same stream. -checkpoint / -resume carry the
// engine's mutable state across restarts without changing an alarm; the
// checkpoint replaces its file atomically, so both flags may name the
// same path.
//
// Multi-instance placement: give each instance a -name and the full
// peer list with -peers; the instances agree on a consistent-hash ring
// and each refuses vehicles owned elsewhere with a typed 409 pointing
// at the owner. Vehicles move between live instances with
// POST /admin/drain — state travels as handoff frames over the same
// ingest wire path, and the alarms stay bit-identical through the move.
//
// Usage:
//
//	navarchos-serve -addr :8080
//	navarchos-serve -addr :8080 -shards 8 -journal alarms.jsonl
//	navarchos-serve -addr :8080 -resume fleet.ckpt -checkpoint fleet.ckpt
//	navarchos-serve -addr :8081 -name a -peers b=http://host2:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
)

// parsePeers parses the -peers flag: "name=baseURL,name=baseURL".
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	peers := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=baseURL)", part)
		}
		peers[name] = url
	}
	return peers, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("navarchos-serve: ")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	shards := flag.Int("shards", 0, "engine shard count (0 = GOMAXPROCS)")
	factor := flag.Float64("factor", 14, "self-tuning threshold factor")
	journalCap := flag.Int("journal-cap", 256, "alarm journal ring capacity")
	journalPath := flag.String("journal", "", "append every alarm as a JSON line to this file")
	eventsPath := flag.String("events", "", "append every control-plane event as a JSON line to this file")
	checkpointPath := flag.String("checkpoint", "", "write engine state to this file on shutdown")
	resumePath := flag.String("resume", "", "restore engine state from this file at startup")
	maxBody := flag.Int64("max-body", 64<<20, "maximum ingest request body, bytes")
	name := flag.String("name", "", "this instance's name on the placement ring")
	peers := flag.String("peers", "", "comma-separated peer list, name=baseURL each")
	flag.Parse()

	peerMap, err := parsePeers(*peers)
	if err != nil {
		log.Fatal(err)
	}
	cfg := serverConfig{
		shards:     *shards,
		factor:     *factor,
		journalCap: *journalCap,
		maxBody:    *maxBody,
		alarmLog:   os.Stdout,
		name:       *name,
		peers:      peerMap,
	}
	if *journalPath != "" {
		jf, err := os.Create(*journalPath)
		if err != nil {
			log.Fatal(err)
		}
		defer jf.Close()
		cfg.jsonlSink = jf
	}
	if *eventsPath != "" {
		ef, err := os.Create(*eventsPath)
		if err != nil {
			log.Fatal(err)
		}
		defer ef.Close()
		cfg.eventsSink = ef
	}
	if *resumePath != "" {
		rf, err := os.Open(*resumePath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.resume = rf
		defer rf.Close()
	}
	s, err := newServer(cfg)
	if err != nil {
		log.Fatal(err)
	}

	srv := &http.Server{Addr: *addr, Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("ingest data plane on %s (POST /ingest, GET /fleet /alarms /metrics)\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case got := <-sig:
		fmt.Printf("caught %v; draining\n", got)
	}

	// Stop accepting requests, then stop the engine (flushes pending
	// batches, completes in-flight fits) and snapshot if asked.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := s.close(); err != nil {
		log.Printf("engine close: %v", err)
	}
	if *checkpointPath != "" {
		// Atomically: -resume may have read this very path, and a crash or
		// a full disk half way through must not destroy the only copy.
		size, err := checkpoint.WriteFileAtomic(*checkpointPath, s.eng.Checkpoint)
		if err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		fmt.Printf("checkpoint written to %s (%d bytes)\n", *checkpointPath, size)
	}
	st := s.eng.Stats()
	fmt.Printf("served %d records, %d events from %d vehicles; %d alarms journaled\n",
		st.RecordsIn, st.EventsIn, st.Vehicles, s.journal.Total())
}
