package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"github.com/navarchos/pdm"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// alarmKey is one alarm reduced to what verification compares: who,
// when, which channel, and the exact bits of score and threshold.
type alarmKey struct {
	Vehicle   string
	Time      int64 // UTC unix nanoseconds
	Channel   int
	Score     uint64
	Threshold uint64
}

func (k alarmKey) String() string {
	return fmt.Sprintf("%s %s ch%d score=%016x threshold=%016x", k.Vehicle,
		time.Unix(0, k.Time).UTC().Format(time.RFC3339), k.Channel, k.Score, k.Threshold)
}

func keyOf(a pdm.Alarm) alarmKey {
	return alarmKey{a.VehicleID, a.Time.UnixNano(), a.Channel,
		math.Float64bits(a.Score), math.Float64bits(a.Threshold)}
}

func sortKeys(keys []alarmKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Vehicle != b.Vehicle {
			return a.Vehicle < b.Vehicle
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.Channel < b.Channel
	})
}

// diffAlarms compares two sorted alarm sets bit for bit and describes
// the first difference.
func diffAlarms(got, want []alarmKey) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("alarm %d of %d differs:\n  got  %v\n  want %v", i, len(want), got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d alarms, want %d", len(got), len(want))
	}
	return nil
}

// readJournal parses navarchos-serve's -journal JSONL into sorted keys.
// encoding/json writes the shortest decimal that round-trips, so the
// parsed floats carry the server's exact bits.
func readJournal(path string) ([]alarmKey, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var keys []alarmKey
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var e pdm.AlarmJournalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", line, err)
		}
		keys = append(keys, alarmKey{e.VehicleID, e.Time.UnixNano(), e.Channel,
			math.Float64bits(e.Score), math.Float64bits(e.Threshold)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	sortKeys(keys)
	return keys, nil
}

// referenceAlarms replays the records through an in-process engine
// built with the public pdm API — the in-memory Replay path, which
// shares neither HTTP nor wire decode nor batch admission with what the
// ingest workloads exercise — and returns its alarms, sorted.
func referenceAlarms(records []timeseries.Record, events []obd.Event,
	newConfig func(string) (pdm.PipelineConfig, error), shards int) ([]alarmKey, error) {
	eng, err := pdm.NewFleetEngine(pdm.FleetEngineConfig{NewConfig: newConfig, Shards: shards})
	if err != nil {
		return nil, err
	}
	var keys []alarmKey
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range eng.Alarms() {
			keys = append(keys, keyOf(a))
		}
	}()
	replayErr := eng.Replay(records, events)
	closeErr := eng.Close()
	<-done
	if replayErr != nil {
		return nil, fmt.Errorf("reference replay: %w", replayErr)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("reference engine: %w", closeErr)
	}
	sortKeys(keys)
	return keys, nil
}
