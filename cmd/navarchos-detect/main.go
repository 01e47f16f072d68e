// Command navarchos-detect runs the paper's complete solution
// (Algorithm 1: correlation transform → dynamic reference profile →
// closest-pair detection → self-tuning thresholds) over a fleet in
// streaming fashion and prints every alarm with its feature-level
// explanation.
//
// Data comes either from CSV files written by navarchos-gen (-records /
// -events) or from a freshly generated synthetic fleet (-scale). The
// fleet streams through the sharded concurrent engine; -checkpoint and
// -resume serialize and restore the engine's mutable state so a long
// replay can be split across process invocations without changing a
// single alarm.
//
// Usage:
//
//	navarchos-detect -scale small
//	navarchos-detect -records data/records.csv -events data/events.csv
//	navarchos-detect -scale small -checkpoint fleet.ckpt
//	navarchos-detect -scale small -resume fleet.ckpt
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"github.com/navarchos/pdm"
	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// openLog opens the -journal file as navarchos-serve opens its logs: a
// run resuming from a checkpoint appends to it, a fresh run (a fresh
// engine) truncates it.
func openLog(path string, resume bool) (*os.File, error) {
	if resume {
		return os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	}
	return os.Create(path)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("navarchos-detect: ")
	scale := flag.String("scale", "", "generate a fleet instead of reading CSV: small | bench | paper")
	seed := flag.Int64("seed", 1, "generator seed (with -scale)")
	recordsPath := flag.String("records", "", "records CSV (from navarchos-gen)")
	eventsPath := flag.String("events", "", "events CSV (from navarchos-gen)")
	factor := flag.Float64("factor", 14, "self-tuning threshold factor")
	shards := flag.Int("shards", 0, "engine shard count (0 = GOMAXPROCS)")
	checkpointPath := flag.String("checkpoint", "", "write engine state to this file after the run")
	resumePath := flag.String("resume", "", "restore engine state from this file before the run")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof/* and /fleet on this address (e.g. :8080)")
	journalPath := flag.String("journal", "", "append every alarm as a JSON line to this file (with -debug-addr; continued after -resume)")
	hold := flag.Duration("hold", 0, "keep the debug server up this long after the replay finishes")
	flag.Parse()

	var records []timeseries.Record
	var events []obd.Event
	switch {
	case *scale != "":
		cfg, err := fleetsim.ConfigForScale(*scale, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fleet := fleetsim.Generate(cfg)
		records, events = fleet.Records, fleet.Events
	case *recordsPath != "" && *eventsPath != "":
		rf, err := os.Open(*recordsPath)
		if err != nil {
			log.Fatal(err)
		}
		records, err = fleetsim.ReadRecordsCSV(rf)
		rf.Close()
		if err != nil {
			log.Fatal(err)
		}
		ef, err := os.Open(*eventsPath)
		if err != nil {
			log.Fatal(err)
		}
		events, err = fleetsim.ReadEventsCSV(ef)
		ef.Close()
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("provide either -scale or both -records and -events")
	}

	// Observability: one registry + observer shared by every pipeline
	// and the engine, a bounded alarm journal, and the debug endpoint.
	// Without -debug-addr the observer stays nil and costs nothing.
	var observer *pdm.Observer
	var journal *pdm.AlarmJournal
	var registry *pdm.MetricsRegistry
	if *debugAddr != "" {
		registry = pdm.NewMetricsRegistry()
		journal = pdm.NewAlarmJournal(256)
		if *journalPath != "" {
			jf, err := openLog(*journalPath, *resumePath != "")
			if err != nil {
				log.Fatal(err)
			}
			defer jf.Close()
			journal.SetSink(jf)
		}
		observer = pdm.NewObserver(registry, pdm.ObserverConfig{Journal: journal})
	}

	// Config only: the immutable assembly recipe for each vehicle's
	// pipeline. Mutable state lives inside the engine and travels
	// through -checkpoint / -resume instead.
	engCfg := pdm.FleetEngineConfig{
		NewConfig: func(string) (pdm.PipelineConfig, error) {
			pc, err := pdm.DefaultPipelineConfig()
			if err != nil {
				return pdm.PipelineConfig{}, err
			}
			pc.Thresholder = pdm.NewSelfTuningThreshold(*factor)
			pc.Observer = observer
			return pc, nil
		},
		Shards:   *shards,
		Observer: observer,
	}

	var eng *pdm.FleetEngine
	var err error
	if *resumePath != "" {
		f, oerr := os.Open(*resumePath)
		if oerr != nil {
			log.Fatal(oerr)
		}
		eng, err = pdm.NewFleetEngineFromCheckpoint(f, engCfg)
		f.Close()
		if err != nil {
			log.Fatalf("resume %s: %v", *resumePath, err)
		}
	} else {
		eng, err = pdm.NewFleetEngine(engCfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	if *debugAddr != "" {
		srv, err := pdm.StartDebugServer(*debugAddr, pdm.DebugConfig{
			Registry:    registry,
			Journal:     journal,
			FleetStatus: func() any { return eng.Stats() },
		})
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint on http://%s (/metrics /debug/vars /debug/pprof/ /fleet)\n", srv.Addr())
	}

	var alarms []pdm.Alarm
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range eng.Alarms() {
			alarms = append(alarms, a)
		}
	}()
	if err := eng.Replay(records, events); err != nil {
		log.Fatal(err)
	}
	if *checkpointPath != "" {
		// Atomically: -resume may have read this very path. The live
		// checkpoint's quiesce lands every queued record and fit first,
		// and a run whose engine recorded an error writes no file.
		size, err := checkpoint.WriteFileAtomic(*checkpointPath, func(w io.Writer) error {
			if err := eng.Checkpoint(w); err != nil {
				return err
			}
			return eng.Err()
		})
		if err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		fmt.Printf("checkpoint written to %s (%d bytes)\n", *checkpointPath, size)
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	<-done

	st := eng.Stats()
	daily := pdm.ConsolidateDaily(alarms)
	fmt.Printf("processed %d records from %d vehicles; %d raw violations, %d day-level alarms\n",
		len(records), st.Vehicles, len(alarms), len(daily))
	for _, a := range daily {
		fmt.Printf("%s  %-8s %-32s score=%.4f threshold=%.4f\n",
			a.Time.Format("2006-01-02 15:04"), a.VehicleID, a.Feature, a.Score, a.Threshold)
	}
	m := pdm.Evaluate(daily, events, 30*24*time.Hour)
	fmt.Printf("\nagainst recorded repairs (PH=30d): TP=%d FP=%d of %d failures — P=%.2f R=%.2f F0.5=%.2f\n",
		m.TP, m.FP, m.TotalFailures, m.Precision, m.Recall, m.F05)

	if *debugAddr != "" && *hold > 0 {
		fmt.Printf("holding debug endpoint open for %v (curl /metrics, /fleet)\n", *hold)
		time.Sleep(*hold)
	}
}
