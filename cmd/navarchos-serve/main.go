// Command navarchos-serve is the long-running fleet ingest front end:
// the sharded detection engine behind an HTTP data plane. Producers
// POST telemetry — NVWIRE1 binary frames, CSV, or JSON — to /ingest
// (binary frames may also trickle over a held-open chunked body); the
// server decodes without per-record allocation (binary decoders outlive
// the request in server.decoders), admits whole batches through the
// engine's IngestBatch seam, and exposes detection state over the
// observability endpoints.
//
// Routes:
//
//	POST /ingest          telemetry: text/csv, application/json, or by
//	                      default an NVWIRE1 frame stream (chunked-
//	                      friendly; KindHandoff frames adopt vehicles)
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
	"io"
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

// openLog opens a -journal or -events file: a server resuming from a
// checkpoint appends to it, a fresh start (a fresh engine) truncates it.
// navarchos-detect opens its -journal with the same rule.
func openLog(path string, resume bool) (*os.File, error) {
	if resume {
		return os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	}
	return os.Create(path)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("navarchos-serve: ")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	shards := flag.Int("shards", 0, "engine shard count (0 = GOMAXPROCS)")
	factor := flag.Float64("factor", 14, "self-tuning threshold factor")
	journalCap := flag.Int("journal-cap", 256, "alarm journal ring capacity")
	journalPath := flag.String("journal", "", "append every alarm as a JSON line to this file (continued after -resume)")
	eventsPath := flag.String("events", "", "append every control-plane event as a JSON line to this file (continued after -resume)")
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
	for _, l := range []struct {
		path string
		sink *io.Writer
	}{{*journalPath, &cfg.jsonlSink}, {*eventsPath, &cfg.eventsSink}} {
		if l.path == "" {
			continue
		}
		f, err := openLog(l.path, *resumePath != "")
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		*l.sink = f
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

	srv := &http.Server{Addr: *addr, Handler: s.mux, ConnState: s.trackConn}
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

	// Stop HTTP and wait out every handler, snapshot the live engine if
	// asked (its quiesce lands pending batches and fits), stop the engine.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.stop(ctx, srv); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
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
	if err := s.close(); err != nil {
		log.Printf("engine close: %v", err)
	}
	st := s.eng.Stats()
	fmt.Printf("served %d records, %d events from %d vehicles; %d alarms journaled\n",
		st.RecordsIn, st.EventsIn, st.Vehicles, s.journal.Total())
}
