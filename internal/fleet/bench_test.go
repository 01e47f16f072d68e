package fleet

import (
	"runtime"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector/closestpair"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// benchStream synthesises a time-interleaved multi-vehicle record stream
// without the fleet simulator's cost: every vehicle drives continuously,
// values vary enough to dodge the stationary filter.
func benchStream(vehicles, perVehicle int) []timeseries.Record {
	ids := make([]string, vehicles)
	for v := range ids {
		ids[v] = "veh-" + itoa(v)
	}
	base := time.Date(2023, 6, 1, 8, 0, 0, 0, time.UTC)
	out := make([]timeseries.Record, 0, vehicles*perVehicle)
	for i := 0; i < perVehicle; i++ {
		t := base.Add(time.Duration(i) * time.Minute)
		for v := 0; v < vehicles; v++ {
			var vals [obd.NumPIDs]float64
			vals[obd.EngineRPM] = 1500 + float64((i+v)%37)*20
			vals[obd.Speed] = 40 + float64((i+2*v)%23)
			vals[obd.CoolantTemp] = 87 + float64(i%5)
			vals[obd.IntakeTemp] = 24 + float64((i+v)%11)
			vals[obd.MAPIntake] = 38 + float64(i%13)
			vals[obd.MAFAirFlowRate] = 9 + float64((i+3*v)%7)
			out = append(out, timeseries.Record{VehicleID: ids[v], Time: t, Values: vals})
		}
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for n > 0 {
		pos--
		buf[pos] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[pos:])
}

// benchPipelineConfig is the complete solution without the warmup
// filter, so the whole stream exercises transform + scoring.
func benchPipelineConfig(string) (core.Config, error) {
	tr, err := transform.New(transform.Correlation, 12)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Transformer:   tr,
		Detector:      closestpair.New(tr.FeatureNames()),
		Thresholder:   thresholds.NewSelfTuning(10),
		ProfileLength: 45,
		Filter:        func(*timeseries.Record) bool { return true },
	}, nil
}

// BenchmarkFleetThroughput measures aggregate engine throughput
// (records/sec) as the shard count grows — the ISSUE's scaling
// criterion: on a multi-core runner, NumCPU shards must clear ≥2× the
// single-shard rate. Each iteration replays the stream through a fresh
// engine. Two fleet shapes, because admission tuned on one hid a loss
// on the other: 64 vehicles, and the 400 × 2000 of the benchmark's
// ingest_burst workload.
func BenchmarkFleetThroughput(b *testing.B) {
	shardCounts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		shardCounts = append(shardCounts, n)
	}
	for _, shape := range []struct{ vehicles, perVehicle int }{{64, 700}, {400, 2000}} {
		records := benchStream(shape.vehicles, shape.perVehicle)
		for _, shards := range shardCounts {
			b.Run("vehicles-"+itoa(shape.vehicles)+"/shards-"+itoa(shards), func(b *testing.B) {
				b.ResetTimer()
				processed := 0
				for i := 0; i < b.N; i++ {
					e, err := NewEngine(Config{
						NewConfig:  benchPipelineConfig,
						Shards:     shards,
						DropAlarms: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := e.Replay(records, nil); err != nil {
						b.Fatal(err)
					}
					if err := e.Close(); err != nil {
						b.Fatal(err)
					}
					if got := e.Stats().RecordsIn; got != uint64(len(records)) {
						b.Fatalf("RecordsIn = %d, want %d", got, len(records))
					}
					processed += len(records)
				}
				b.StopTimer()
				b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "records/s")
			})
		}
	}
}

// BenchmarkEngineIngestOverhead isolates the envelope/batching/channel
// cost: a config that skips every vehicle measures the engine minus the
// scoring work.
func BenchmarkEngineIngestOverhead(b *testing.B) {
	records := benchStream(64, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(Config{
			NewConfig:  func(string) (core.Config, error) { return core.Config{}, ErrSkipVehicle },
			Shards:     4,
			DropAlarms: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Replay(records, nil); err != nil {
			b.Fatal(err)
		}
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(records))/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkVehicleHandoff measures live vehicle migration between two
// running engines at different shard counts: extract → encode → decode
// → adopt per vehicle, on state warmed mid-stream (fitted profiles,
// live thresholds). Each iteration moves the whole fleet one way and
// the next moves it back, so the engines are built and warmed once.
func BenchmarkVehicleHandoff(b *testing.B) {
	newEngine := func(shards int) *Engine {
		e, err := NewEngine(Config{NewConfig: benchPipelineConfig, Shards: shards, DropAlarms: true})
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	src, dst := newEngine(1), newEngine(2)
	defer src.Close()
	defer dst.Close()
	if err := src.Replay(benchStream(64, 700), nil); err != nil {
		b.Fatal(err)
	}
	ids := src.VehicleIDs()
	stateBytes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			vs, err := src.ExtractVehicle(id)
			if err != nil {
				b.Fatal(err)
			}
			payload := vs.Encode()
			stateBytes += len(payload)
			if vs, err = DecodeVehicleState(payload); err != nil {
				b.Fatal(err)
			}
			if err := dst.AdoptVehicle(vs); err != nil {
				b.Fatal(err)
			}
		}
		src, dst = dst, src
	}
	b.StopTimer()
	moved := float64(b.N * len(ids))
	b.ReportMetric(moved/b.Elapsed().Seconds(), "vehicles/s")
	b.ReportMetric(float64(stateBytes)/moved, "bytes/vehicle")
}
