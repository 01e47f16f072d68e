// Observability walkthrough: instrument a small fleet replay with the
// obs layer — one shared metrics registry and observer, a bounded alarm
// journal, and the live debug endpoint — then scrape the run's own
// /metrics and /fleet over HTTP, exactly as a Prometheus scraper or an
// on-call engineer with curl would.
//
// The observer is threaded through two seams: PipelineConfig.Observer
// instruments every per-vehicle pipeline (stage latency, profile
// resets/refills, score distributions, journaled alarms) and
// FleetEngineConfig.Observer instruments the engine itself (per-shard
// queue depth and counters, batch latency, checkpoint duration). A nil
// observer disables all of it with zero overhead, and instrumentation
// never changes which alarms fire.
//
// Run with: go run ./examples/observability
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"

	"github.com/navarchos/pdm"
)

func main() {
	log.SetFlags(0)

	// One registry + observer shared by the engine and every pipeline;
	// the journal keeps the last 64 alarms with their full context.
	registry := pdm.NewMetricsRegistry()
	journal := pdm.NewAlarmJournal(64)
	observer := pdm.NewObserver(registry, pdm.ObserverConfig{Journal: journal})

	engCfg := pdm.FleetEngineConfig{
		NewConfig: func(string) (pdm.PipelineConfig, error) {
			cfg, err := pdm.DefaultPipelineConfig()
			cfg.Observer = observer
			return cfg, err
		},
		Observer: observer,
	}
	eng, err := pdm.NewFleetEngine(engCfg)
	if err != nil {
		log.Fatal(err)
	}

	// The debug endpoint serves the registry at /metrics, the engine and
	// journal at /fleet, and Go's standard /debug/pprof/* and
	// /debug/vars; port 0 picks a free port.
	srv, err := pdm.StartDebugServer("127.0.0.1:0", pdm.DebugConfig{
		Registry:    registry,
		Journal:     journal,
		FleetStatus: func() any { return eng.Stats() },
		JournalN:    3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("debug endpoint on http://%s\n\n", srv.Addr())

	// Replay a small synthetic fleet through the instrumented engine.
	fleet := pdm.NewFleet(pdm.SmallFleetConfig())
	var alarms []pdm.Alarm
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range eng.Alarms() {
			alarms = append(alarms, a)
		}
	}()
	if err := eng.Replay(fleet.Records, fleet.Events); err != nil {
		log.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	<-done
	fmt.Printf("replayed %d records, raised %d alarms (journal holds the last %d)\n\n",
		len(fleet.Records), len(alarms), journal.Total())

	// Scrape our own /metrics, as `curl http://host:port/metrics` would,
	// and show the pipeline/fleet families.
	fmt.Println("curl /metrics (excerpt):")
	for _, line := range fetchLines(srv.Addr(), "/metrics") {
		if strings.Contains(line, "pdm_pipeline_alarms_total") ||
			strings.Contains(line, "pdm_fleet_vehicles") ||
			strings.Contains(line, "pdm_pipeline_score_seconds_count") ||
			strings.Contains(line, "pdm_fleet_shard_records_total") {
			fmt.Println(" ", line)
		}
	}

	// And /fleet: engine status plus the last journal entries — each
	// alarm carries vehicle, score, live threshold and Ref fill level.
	fmt.Println("\ncurl /fleet (last journal entries):")
	for _, line := range fetchLines(srv.Addr(), "/fleet") {
		if strings.Contains(line, `"vehicle"`) || strings.Contains(line, `"score"`) ||
			strings.Contains(line, `"threshold"`) || strings.Contains(line, `"ref_len"`) {
			fmt.Println(" ", strings.TrimSpace(line))
		}
	}
}

// fetchLines GETs a path from the debug endpoint and splits the body
// into lines.
func fetchLines(addr, path string) []string {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 1<<20))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}
