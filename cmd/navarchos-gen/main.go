// Command navarchos-gen generates a synthetic vehicle-fleet dataset —
// the stand-in for the paper's proprietary Navarchos traces — and writes
// it as CSV: one telemetry file (per-minute PID records) and one event
// file (services, repairs, DTCs as the FMS records them).
//
// Usage:
//
//	navarchos-gen -scale bench -seed 1 -out ./data
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("navarchos-gen: ")
	scale := flag.String("scale", "bench", "dataset scale: small | bench | paper")
	seed := flag.Int64("seed", 1, "generator seed (fully deterministic)")
	out := flag.String("out", ".", "output directory")
	flag.Parse()

	cfg, err := fleetsim.ConfigForScale(*scale, *seed)
	if err != nil {
		log.Fatal(err)
	}

	fleet := fleetsim.Generate(cfg)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	recPath := filepath.Join(*out, "records.csv")
	rf, err := os.Create(recPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := fleetsim.WriteRecordsCSV(rf, fleet.Records); err != nil {
		log.Fatal(err)
	}
	if err := rf.Close(); err != nil {
		log.Fatal(err)
	}

	evPath := filepath.Join(*out, "events.csv")
	ef, err := os.Create(evPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := fleetsim.WriteEventsCSV(ef, fleet.Events); err != nil {
		log.Fatal(err)
	}
	if err := ef.Close(); err != nil {
		log.Fatal(err)
	}

	failures := 0
	for _, ev := range fleet.Events {
		if ev.Type == obd.EventRepair {
			failures++
		}
	}
	fmt.Printf("wrote %s (%d records) and %s (%d events, %d failures)\n",
		recPath, len(fleet.Records), evPath, len(fleet.Events), failures)
	fmt.Printf("vehicles: %d total, %d with recorded events\n",
		len(fleet.Vehicles), len(fleet.EventVehicleIDs()))
}
