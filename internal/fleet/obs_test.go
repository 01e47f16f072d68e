package fleet

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"sync"
	"testing"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// observedGrid decorates a per-vehicle config factory with an observer,
// so every pipeline the engine builds is instrumented.
func observedGrid(base func(string) (core.Config, error), o *obs.Observer) func(string) (core.Config, error) {
	return func(v string) (core.Config, error) {
		cfg, err := base(v)
		cfg.Observer = o
		return cfg, err
	}
}

// countHandler is a minimal Handler whose ScoredSamples tracks records
// one-to-one, making RecordsIn == SamplesScored the consistency oracle.
type countHandler struct{ n uint64 }

func (h *countHandler) HandleRecord(timeseries.Record) ([]detector.Alarm, error) {
	h.n++
	return nil, nil
}
func (h *countHandler) HandleEvent(obd.Event) {}
func (h *countHandler) ScoredSamples() uint64 { return h.n }

// TestEngineStatsConsistent hammers a live engine with concurrent
// producers while repeatedly taking consistent snapshots. Because the
// shard loop counts a record before handling it, a mid-batch Stats may
// observe RecordsIn ahead of SamplesScored; StatsConsistent quiesces at
// a batch boundary, so the two must always agree exactly.
func TestEngineStatsConsistent(t *testing.T) {
	e := newEngine(t, Config{
		NewHandler: func(string) (Handler, error) { return &countHandler{}, nil },
		Shards:     4,
		batchSize:  8,
	})

	const producers, perProducer = 4, 2000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				r := []timeseries.Record{{VehicleID: fmt.Sprintf("veh-%02d", (p*7+i)%16)}}
				if err := e.IngestBatch(r, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	snaps := make(chan struct{})
	go func() {
		defer close(snaps)
		for i := 0; i < 25; i++ {
			st := e.StatsConsistent()
			if st.RecordsIn != st.SamplesScored {
				t.Errorf("inconsistent cut: RecordsIn %d != SamplesScored %d", st.RecordsIn, st.SamplesScored)
				return
			}
		}
	}()
	wg.Wait()
	<-snaps

	// All producers done: a final live consistent snapshot must account
	// for every ingested record, including partially filled batches.
	st := e.StatsConsistent()
	if want := uint64(producers * perProducer); st.RecordsIn != want || st.SamplesScored != want {
		t.Fatalf("final consistent stats = %d records / %d scored, want %d",
			st.RecordsIn, st.SamplesScored, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed engine: StatsConsistent degenerates to Stats, still exact.
	if got := e.StatsConsistent().RecordsIn; got != uint64(producers*perProducer) {
		t.Fatalf("closed-engine stats = %d", got)
	}
}

// TestEngineMetricsExposition checks the fleet-level metric families a
// live observed engine publishes: vehicle gauge, per-shard counters,
// batch latency, and the checkpoint-duration histogram fed by a live
// Checkpoint.
func TestEngineMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.NewObserver(reg, obs.ObserverConfig{})
	e := newEngine(t, Config{
		NewConfig: observedGrid(gridConfig(paperTechniques()[0], transform.Correlation, nil), o),
		Shards:    2,
		batchSize: 16,
		Observer:  o,
	})
	records, events := syntheticStream(3, 60)
	wait := drainAlarms(e)
	if err := e.Replay(records, events); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(io.Discard); err != nil { // live: exercises quiesce + ckptH
		t.Fatal(err)
	}
	st := e.StatsConsistent()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for what, re := range map[string]*regexp.Regexp{
		"vehicle gauge":   regexp.MustCompile(`pdm_fleet_vehicles 3\b`),
		"shard records":   regexp.MustCompile(`pdm_fleet_shard_records_total\{shard="0"\} [0-9]+`),
		"shard scored":    regexp.MustCompile(`pdm_fleet_shard_samples_scored_total\{shard="1"\} [0-9]+`),
		"queue gauge":     regexp.MustCompile(`pdm_fleet_shard_queue_depth\{shard="0"\} [0-9]+`),
		"batch latency":   regexp.MustCompile(`pdm_fleet_batch_seconds_count [1-9]`),
		"checkpoint hist": regexp.MustCompile(`pdm_fleet_checkpoint_seconds_count 1\b`),
	} {
		if !re.MatchString(text) {
			t.Errorf("exposition missing %s (%s)", what, re)
		}
	}
	// The per-shard record counters must sum to the engine's own total.
	sumRe := regexp.MustCompile(`pdm_fleet_shard_records_total\{shard="[0-9]+"\} ([0-9]+)`)
	var sum uint64
	for _, m := range sumRe.FindAllStringSubmatch(text, -1) {
		var v uint64
		fmt.Sscan(m[1], &v)
		sum += v
	}
	if sum != st.RecordsIn {
		t.Errorf("shard counters sum to %d, engine reports %d", sum, st.RecordsIn)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
}
