// Checkpoint/restore walkthrough: run half a fleet replay, serialize
// the engine's mutable state to a file, restore it into a brand-new
// engine (standing in for a new process after a restart or migration),
// finish the replay, and verify the combined alarms are identical to an
// uninterrupted run.
//
// The state/config split is what makes this work: the checkpoint file
// holds only mutable state (profiles, detector fits, threshold
// statistics, warm-up filter position), while the configuration — which
// transform, which detector, how many shards — is re-supplied in code
// at restore time and may differ between the two processes.
//
// Run with: go run ./examples/checkpointrestore
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/navarchos/pdm"
)

func main() {
	log.SetFlags(0)
	fleet := pdm.NewFleet(pdm.SmallFleetConfig())
	engCfg := pdm.FleetEngineConfig{
		NewConfig: func(string) (pdm.PipelineConfig, error) { return pdm.DefaultPipelineConfig() },
	}

	// Reference: one uninterrupted replay of the whole fleet.
	reference := replay(engCfg, fleet.Records, fleet.Events, nil)

	// Split the streams chronologically at the halfway record.
	n := len(fleet.Records) / 2
	splitTime := fleet.Records[n].Time
	var preEvents, postEvents []pdm.Event
	for _, ev := range fleet.Events {
		if ev.Time.Before(splitTime) {
			preEvents = append(preEvents, ev)
		} else {
			postEvents = append(postEvents, ev)
		}
	}

	// Process 1: replay the first half, then checkpoint to a file.
	ckpt := filepath.Join(os.TempDir(), "navarchos-fleet.ckpt")
	firstHalf := replay(engCfg, fleet.Records[:n], preEvents, func(eng *pdm.FleetEngine) {
		f, err := os.Create(ckpt)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := eng.Checkpoint(f); err != nil {
			log.Fatal(err)
		}
	})
	fi, err := os.Stat(ckpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("process 1: replayed %d of %d records, checkpointed %d bytes to %s\n",
		n, len(fleet.Records), fi.Size(), ckpt)

	// Process 2: restore into a fresh engine — different shard count on
	// purpose — and finish the replay.
	f, err := os.Open(ckpt)
	if err != nil {
		log.Fatal(err)
	}
	restoredCfg := engCfg
	restoredCfg.Shards = 2
	eng, err := pdm.NewFleetEngineFromCheckpoint(f, restoredCfg)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	secondHalf := drainAndFinish(eng, fleet.Records[n:], postEvents, nil)
	fmt.Printf("process 2: restored %d vehicles, replayed the remaining %d records\n",
		eng.Stats().Vehicles, len(fleet.Records)-n)

	// The interrupted run must reproduce the reference bit for bit.
	combined := append(firstHalf, secondHalf...)
	sortAlarms(combined)
	sortAlarms(reference)
	if !sameAlarms(combined, reference) {
		log.Fatalf("alarms diverged: %d resumed vs %d reference", len(combined), len(reference))
	}
	fmt.Printf("checkpoint+restore reproduced all %d alarms bit-identically\n", len(reference))
	os.Remove(ckpt)
}

// replay runs records/events through a fresh engine and returns its
// alarms; beforeClose (optional) runs on the live engine once the
// replay is in, which is where a checkpoint of a finished ingest
// belongs.
func replay(cfg pdm.FleetEngineConfig, records []pdm.Record, events []pdm.Event, beforeClose func(*pdm.FleetEngine)) []pdm.Alarm {
	eng, err := pdm.NewFleetEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return drainAndFinish(eng, records, events, beforeClose)
}

func drainAndFinish(eng *pdm.FleetEngine, records []pdm.Record, events []pdm.Event, beforeClose func(*pdm.FleetEngine)) []pdm.Alarm {
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
	if beforeClose != nil {
		beforeClose(eng)
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	<-done
	return alarms
}

func sortAlarms(a []pdm.Alarm) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].VehicleID != a[j].VehicleID {
			return a[i].VehicleID < a[j].VehicleID
		}
		if !a[i].Time.Equal(a[j].Time) {
			return a[i].Time.Before(a[j].Time)
		}
		return a[i].Channel < a[j].Channel
	})
}

func sameAlarms(got, want []pdm.Alarm) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.VehicleID != w.VehicleID || !g.Time.Equal(w.Time) || g.Channel != w.Channel ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Threshold) != math.Float64bits(w.Threshold) {
			return false
		}
	}
	return true
}
